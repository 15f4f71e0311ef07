//! Query service quickstart — now over a real socket: serve
//! distance/path/stretch reads from a self-healing network while an
//! adversary churns it, through the `fg-serve` TCP tier.
//!
//! The moving parts, exactly as a deployment would wire them:
//!
//! * a **writer** owns the healer behind a [`Publisher`]: every event
//!   batch heals and then publishes an immutable epoch-stamped snapshot
//!   into the [`SnapshotHub`](fg_serve::SnapshotHub);
//! * a **server** ([`Server`]) accepts connections and answers FGQ1
//!   requests from whatever snapshot is current, stamping every
//!   response with the `(epoch, digest)` certificate of the snapshot
//!   that answered it;
//! * a **client** ([`Client`]) connects over loopback and issues typed
//!   round trips — including a pipelined burst — and the demo asserts
//!   every served answer is bit-identical to asking the healer's view
//!   in-process.
//!
//! ```bash
//! cargo run --example query_service
//! ```
//!
//! [`Publisher`]: fg_serve::Publisher
//! [`Server`]: fg_serve::Server
//! [`Client`]: fg_serve::Client

use fg_core::{GraphView, NetworkEvent, PlacementPolicy, QueryOps, SelfHealer};
use fg_dist::DistHealer;
use fg_graph::{generators, NodeId};
use fg_serve::{Client, Publisher, Request, Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The service fronts the *distributed* healer: every repair runs to
    // quiescence before it returns, so every published snapshot is a
    // consistent picture of the message-passing protocol's state.
    let g0 = generators::barabasi_albert(96, 2, 7);
    let network = DistHealer::from_graph(&g0, PlacementPolicy::Adjacent);
    let mut publisher = Publisher::new(network);
    let hub = publisher.hub();

    // Port 0: the OS picks a free loopback port; a deployment would
    // bind a well-known address here.
    let server = Server::bind(
        ("127.0.0.1", 0),
        hub.clone(),
        ServerConfig {
            readers: 2,
            ..ServerConfig::default()
        },
    )?;
    println!("serving FGQ1 on {}", server.addr());

    let mut client = Client::connect(server.addr())?;
    let (a, b) = (NodeId::new(40), NodeId::new(90));
    let hello = client.epoch()?;
    println!(
        "connected — server is at epoch {} (certificate {:016x})",
        hello.epoch, hello.digest
    );
    let d = client.distance(a, b)?;
    println!("dist({a}, {b}) = {:?} @ epoch {}", d.value, d.epoch);

    // Adversarial churn: each round kills the biggest hub and lets two
    // peers join, then publishes ONE new epoch; the client keeps
    // querying over the same connection and watches the stamp advance.
    for round in 0..4 {
        let hub_node = {
            let image = publisher.healer().image();
            image
                .iter()
                .max_by_key(|&v| image.degree(v))
                .expect("network is non-empty")
        };
        let batch = [NetworkEvent::delete(hub_node), NetworkEvent::insert([a, b])];
        let _ = publisher.apply_and_publish(&batch)?;

        let d = client.distance(a, b)?;
        let s = client.stretch(a, b)?;
        let p = client.path(a, b)?;
        println!(
            "round {round}: killed hub {hub_node}, epoch {} — served dist({a}, {b}) = {:?}, \
             stretch = {}, path of {:?} nodes",
            d.epoch,
            d.value,
            s.value.map_or("n/a".into(), |s| format!("{s:.2}")),
            p.value.as_ref().map(Vec::len),
        );

        // The served answers are bit-identical to asking in-process:
        // same epoch, same certificate, same values.
        let view = publisher.healer().view();
        assert_eq!(d.epoch, view.epoch(), "stamp tracks the live epoch");
        assert_eq!(
            d.digest,
            publisher.digest(),
            "stamp carries the certificate"
        );
        assert_eq!(d.value, view.distance(a, b));
        assert_eq!(s.value, view.stretch(a, b));
        assert_eq!(p.value.map(|p| p.len()), d.value.map(|d| d as usize + 1));
    }

    // Pipelining: queue a burst of requests before reading any answer —
    // one connection, in-order responses, each individually stamped.
    let probes: Vec<NodeId> = (0..8).map(|i| NodeId::new(i * 11)).collect();
    for &u in &probes {
        client.send(&Request::Degree(u))?;
    }
    print!("pipelined degrees:");
    for &u in &probes {
        let response = client.recv()?;
        let body = response.body.expect("well-formed requests answer ok");
        if let fg_serve::ResponseBody::Degree(deg) = body {
            print!(" deg({u})={}", deg.map_or("dead".into(), |d| d.to_string()));
        }
    }
    println!();

    drop(client);
    let stats = server.stats();
    println!(
        "served {} requests over {} connections ({} protocol errors); shutting down",
        stats.served(),
        stats.accepted(),
        stats.protocol_errors()
    );
    server.shutdown();
    Ok(())
}
