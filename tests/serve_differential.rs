//! Loopback serving differential: every answer the `fg-serve` TCP tier
//! returns must be **bit-identical** to the in-process read API it
//! fronts — the epoch-pinned [`FrozenView`] inside the published
//! snapshot — on both healer backends (the single-machine engine and
//! the message-passing protocol), over churn traces and a hub-cascade
//! trace, whose every publish crosses a hub deletion or its refill.
//!
//! Checked per probe pair, over every wire op:
//!
//! * `distance`/`stretch`/`degree`/`same_component`/`neighbors` equal
//!   the frozen snapshot's answers exactly (scalars and node lists);
//! * `path` returns the *same node sequence* the frozen snapshot
//!   computes, not merely an equally short one;
//! * every response is stamped with the published certificate — the
//!   hub's current epoch and the publisher's chained report digest —
//!   and both backends publish the same epoch;
//! * both backends' served scalar answers agree with each other.
//!
//! The wire answers are checked against the published snapshot itself,
//! so the publish step is checked on its own: after every publish the
//! pinned snapshot, advanced from the previous one, must equal a fresh
//! freeze of the live healer. The first [`PER_EVENT`] events publish
//! one at a time, so each `FrozenView::advance` crosses exactly one
//! event: a delete shares the ghost CSR and re-reads only the image rows
//! it changed, and an insert re-reads the changed and appended rows of
//! both; the rest publish in 64-event chunks, whose inserts can attach
//! to each other.
//!
//! [`FrozenView`]: forgiving_graph::core::FrozenView

use forgiving_graph::bench::{probe_pairs, scenario};
use forgiving_graph::core::{ForgivingGraph, GraphView, PlacementPolicy, SelfHealer};
use forgiving_graph::dist::DistHealer;
use forgiving_graph::graph::NodeId;
use forgiving_graph::serve::{Client, Publisher, Request, ResponseBody, Server, ServerConfig};

/// Events published one at a time before the rest go in 64-event chunks.
const PER_EVENT: usize = 2_000;

/// Replays the churn trace through a publisher, checking every
/// published snapshot against a fresh freeze, serves the final snapshot
/// over loopback, and checks every wire op against the frozen snapshot
/// for every probe pair. Returns `(epoch, digest, answers)` for the
/// cross-backend comparison.
fn serve_and_probe<H: SelfHealer>(
    label: &str,
    healer: H,
    events: &[forgiving_graph::core::NetworkEvent],
    pairs: &[(NodeId, NodeId)],
) -> (u64, u64, Vec<ResponseBody>) {
    let mut publisher = Publisher::new(healer);
    let hub = publisher.hub();
    let (singles, rest) = events.split_at(PER_EVENT.min(events.len()));
    for batch in singles.chunks(1).chain(rest.chunks(64)) {
        let _ = publisher.apply_and_publish(batch).expect("legal trace");
        assert!(
            hub.pin().view == publisher.healer().view().freeze(),
            "{label}: the snapshot published at epoch {} differs from a fresh freeze",
            hub.epoch()
        );
    }
    let epoch = hub.epoch();
    let digest = publisher.digest();
    let snapshot = hub.pin();
    assert_eq!(snapshot.epoch, epoch, "{label}: pinned epoch");
    assert_eq!(snapshot.digest, digest, "{label}: pinned digest");
    let frozen = &snapshot.view;

    let server =
        Server::bind(("127.0.0.1", 0), hub, ServerConfig::default()).expect("bind loopback server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // The epoch op carries its answer entirely in the stamp.
    let stamped = client.epoch().expect("epoch roundtrip");
    assert_eq!(stamped.epoch, epoch, "{label}: epoch op stamp");
    assert_eq!(stamped.digest, digest, "{label}: epoch op digest");

    let mut answers = Vec::new();
    for &(u, v) in pairs {
        let ctx = format!("{label} pair ({u}, {v})");
        let requests = [
            Request::Distance(u, v),
            Request::Path(u, v),
            Request::Stretch(u, v),
            Request::Degree(u),
            Request::Neighbors(u),
            Request::SameComponent(u, v),
        ];
        for request in requests {
            let served = client.roundtrip(&request).expect("roundtrip");
            assert_eq!(served.epoch, epoch, "{ctx}: stamp epoch");
            assert_eq!(served.digest, digest, "{ctx}: stamp digest");
            match &served.value {
                ResponseBody::Distance(d) => {
                    assert_eq!(*d, frozen.distance(u, v), "{ctx}: distance")
                }
                ResponseBody::Path(p) => {
                    assert_eq!(*p, frozen.path(u, v), "{ctx}: path node sequence")
                }
                ResponseBody::Stretch(s) => {
                    assert_eq!(*s, frozen.stretch(u, v), "{ctx}: stretch")
                }
                ResponseBody::Degree(d) => {
                    assert_eq!(*d, frozen.degree(u).map(|x| x as u64), "{ctx}: degree")
                }
                ResponseBody::Neighbors(ns) => assert_eq!(
                    *ns,
                    frozen.alive(u).then(|| frozen.neighbors(u)),
                    "{ctx}: neighbors"
                ),
                ResponseBody::SameComponent(c) => {
                    assert_eq!(*c, frozen.same_component(u, v), "{ctx}: component")
                }
                ResponseBody::Epoch => panic!("{ctx}: unexpected epoch body"),
                ResponseBody::EventSubmitted | ResponseBody::BatchSubmitted(_) => {
                    panic!("{ctx}: write ack on a read-only probe")
                }
            }
            answers.push(served.value);
        }
    }
    drop(client);
    server.shutdown();
    (epoch, digest, answers)
}

#[test]
fn served_answers_are_bit_identical_on_both_backends() {
    for (name, seed, events) in [
        ("churn", 3u64, 300),
        ("churn", 11, 300),
        ("churn", 29, 300),
        ("churn", 41, PER_EVENT + 600),
        ("hub-cascade", 43, 600),
    ] {
        let sc = scenario(name, 48, events, seed);
        let pairs = probe_pairs(sc.initial.nodes_ever() + sc.events.len(), seed ^ 0xfeed, 24);

        let engine = ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
        let (engine_epoch, _, engine_answers) =
            serve_and_probe(&format!("engine/{name}/{seed}"), engine, &sc.events, &pairs);

        let dist = DistHealer::from_graph(&sc.initial, PlacementPolicy::Adjacent);
        let (dist_epoch, _, dist_answers) =
            serve_and_probe(&format!("dist/{name}/{seed}"), dist, &sc.events, &pairs);

        // Both backends replayed the same trace: same structural epoch,
        // and — the paper reproduction's core determinism claim carried
        // all the way to the wire — identical served answers.
        assert_eq!(engine_epoch, dist_epoch, "{name}/{seed}: epochs diverged");
        assert_eq!(
            engine_answers, dist_answers,
            "{name}/{seed}: served answers diverged across backends"
        );
    }
}

#[test]
fn serving_tracks_the_live_healer_across_republishes() {
    // Publish → query → apply more churn → publish → query again: the
    // server must always answer from the *latest* published snapshot,
    // with the stamp advancing in lockstep.
    let sc = scenario("churn", 32, 120, 7);
    let engine = ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
    let mut publisher = Publisher::new(engine);
    let hub = publisher.hub();
    let server =
        Server::bind(("127.0.0.1", 0), hub.clone(), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut last_epoch = 0u64;
    for chunk in sc.events.chunks(30) {
        let _ = publisher.apply_and_publish(chunk).expect("legal trace");
        let expect_epoch = hub.epoch();
        let expect_digest = publisher.digest();
        assert!(expect_epoch > last_epoch, "epoch must advance");
        last_epoch = expect_epoch;

        let stamped = client.epoch().expect("epoch roundtrip");
        assert_eq!(stamped.epoch, expect_epoch, "stale snapshot served");
        assert_eq!(stamped.digest, expect_digest, "stale digest served");

        // A live probe answered from the same frozen state the stamp names.
        let frozen = &hub.pin().view;
        let (u, v) = (NodeId::new(0), NodeId::new(1));
        let d = client.distance(u, v).expect("distance roundtrip");
        assert_eq!(d.epoch, expect_epoch);
        assert_eq!(d.value, frozen.distance(u, v));
    }
    drop(client);
    server.shutdown();
}
