//! serve_bench — closed-loop multi-client benchmark of the `fg-serve`
//! TCP serving subsystem.
//!
//! Builds the standard churn snapshot (replaying a scenario trace
//! through a [`fg_serve::Publisher`], one epoch publish per batch),
//! starts the threaded server on a loopback port, then hammers it with
//! `--clients` closed-loop clients, each pipelining `--pipeline`
//! requests per connection for `--duration` seconds. Every response's
//! `(epoch, digest)` stamp is checked against the published
//! certificate, per-request latencies land in a fixed log-bucket
//! histogram ([`fg_bench::LatencyHistogram`]), and a post-run
//! verification pass replays a fresh query stream through both the
//! socket and the in-process `QueryOps` tier, exiting nonzero on any
//! answer or stamp mismatch — the loopback differential gate CI runs.
//!
//! Flags (all optional): `--workload churn`, `--n <initial>`,
//! `--events <count>`, `--batch <publish grain>`, `--clients <k>`,
//! `--duration <secs>`, `--pipeline <depth>`, `--readers <threads>`,
//! `--backend engine|dist|both`, `--verify <queries>`,
//! `--query-mix dist:60,path:10,stretch:10,deg:10,comp:10`, plus the
//! shared `--seed` / `--query-seed` / `--json <path>`.

use fg_bench::json::Json;
use fg_bench::{
    answer_api, answers_agree, scenario, write_artifact, Answer, BenchArgs, LatencyHistogram,
    Query, QueryKind, QueryMix, QueryStream, QueryWorkload,
};
use fg_core::{GraphView, PlacementPolicy, SelfHealer};
use fg_dist::DistHealer;
use fg_graph::Graph;
use fg_metrics::{f2, Table};
use fg_serve::{Publisher, Request, ResponseBody, Server, ServerConfig};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Everything the driver needs to know about one benchmark target.
struct BenchSetup {
    clients: usize,
    duration: Duration,
    pipeline: usize,
    readers: usize,
    verify: usize,
    wl: QueryWorkload,
}

/// One client thread's tally.
struct ClientTally {
    requests: u64,
    stamp_mismatches: u64,
    latency: LatencyHistogram,
}

/// What one backend's full run produced.
struct ServeRun {
    backend: String,
    epoch: u64,
    digest: u64,
    requests: u64,
    wall_seconds: f64,
    qps: f64,
    stamp_mismatches: u64,
    verify_queries: usize,
    verify_mismatches: usize,
    latency: LatencyHistogram,
    accepted: u64,
    served: u64,
    protocol_errors: u64,
    disconnects: u64,
}

fn query_request(q: &Query) -> Request {
    match q.kind {
        QueryKind::Distance => Request::Distance(q.u, q.v),
        QueryKind::Path => Request::Path(q.u, q.v),
        QueryKind::Stretch => Request::Stretch(q.u, q.v),
        QueryKind::Degree => Request::Degree(q.u),
        QueryKind::Component => Request::SameComponent(q.u, q.v),
    }
}

/// A served body as the bench's [`Answer`] type, so served answers run
/// through the same `answers_agree` comparator the in-process
/// differential runs use.
fn served_answer(body: ResponseBody) -> Answer {
    match body {
        ResponseBody::Distance(d) => Answer::Dist(d),
        ResponseBody::Path(p) => Answer::Path(p),
        ResponseBody::Stretch(s) => Answer::Stretch(s),
        ResponseBody::Degree(d) => Answer::Degree(d.map(|x| x as usize)),
        ResponseBody::SameComponent(c) => Answer::Component(c),
        ResponseBody::Epoch
        | ResponseBody::Neighbors(_)
        | ResponseBody::EventSubmitted
        | ResponseBody::BatchSubmitted(_) => {
            unreachable!("the bench mix never issues these ops")
        }
    }
}

/// One closed-loop client: connect, pipeline `depth` requests, then
/// recv-one/send-one until the deadline, draining in-flight requests at
/// the end. Responses arrive in request order, so latency pairing is a
/// FIFO of send instants.
fn run_client(
    addr: SocketAddr,
    queries: &[Query],
    depth: usize,
    deadline: Instant,
    expect_epoch: u64,
    expect_digest: u64,
) -> ClientTally {
    let mut client = fg_serve::Client::connect(addr).expect("bench client connect");
    let mut tally = ClientTally {
        requests: 0,
        stamp_mismatches: 0,
        latency: LatencyHistogram::new(),
    };
    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(depth);
    let mut next = 0usize;
    let send = |client: &mut fg_serve::Client,
                in_flight: &mut VecDeque<(u64, Instant)>,
                next: &mut usize| {
        let q = &queries[*next % queries.len()];
        *next += 1;
        let id = client.send(&query_request(q)).expect("bench send");
        in_flight.push_back((id, Instant::now()));
    };
    for _ in 0..depth.max(1) {
        send(&mut client, &mut in_flight, &mut next);
    }
    loop {
        let response = client.recv().expect("bench recv");
        let (id, sent_at) = in_flight.pop_front().expect("response without a request");
        assert_eq!(response.request_id, id, "pipelined responses must be FIFO");
        assert!(response.body.is_ok(), "bench queries are well-formed");
        tally.latency.record(sent_at.elapsed());
        tally.requests += 1;
        if response.epoch != expect_epoch || response.digest != expect_digest {
            tally.stamp_mismatches += 1;
        }
        if Instant::now() < deadline {
            send(&mut client, &mut in_flight, &mut next);
        } else if in_flight.is_empty() {
            return tally;
        }
    }
}

/// Replays the scenario through a publisher, serves it, and runs the
/// timed multi-client loop plus the verification pass.
fn bench_backend<H: SelfHealer>(
    label: &str,
    healer: H,
    sc: &fg_bench::Scenario,
    setup: &BenchSetup,
    batch: usize,
) -> ServeRun {
    let mut publisher = Publisher::new(healer);
    for chunk in sc.events.chunks(batch) {
        let _ = publisher
            .apply_and_publish(chunk)
            .expect("scenario traces are legal");
    }
    let hub = publisher.hub();
    let epoch = hub.epoch();
    let digest = publisher.digest();

    // The query pools are generated against the post-churn image before
    // the clock starts; each client gets its own deterministic stream.
    let image: &Graph = publisher.healer().image();
    let pools: Vec<Vec<Query>> = (0..setup.clients)
        .map(|i| {
            let mut wl = setup.wl.clone();
            wl.seed = wl.seed.wrapping_add(i as u64);
            QueryStream::new(&wl).block(image, 4096)
        })
        .collect();

    let server = Server::bind(
        ("127.0.0.1", 0),
        hub,
        ServerConfig {
            readers: setup.readers,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server");
    let addr = server.addr();

    let started = Instant::now();
    let deadline = started + setup.duration;
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter()
            .map(|pool| {
                s.spawn(move || run_client(addr, pool, setup.pipeline, deadline, epoch, digest))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut latency = LatencyHistogram::new();
    let mut requests = 0u64;
    let mut stamp_mismatches = 0u64;
    for t in &tallies {
        latency.merge(&t.latency);
        requests += t.requests;
        stamp_mismatches += t.stamp_mismatches;
    }

    // Verification pass: a fresh deterministic stream through the socket
    // against the in-process QueryOps tier on the very same healer.
    let mut verify_client = fg_serve::Client::connect(addr).expect("verify client connect");
    let mut verify_stream = QueryStream::new(&setup.wl);
    let verify_block = verify_stream.block(image, setup.verify);
    let view = publisher.healer().view();
    let mut verify_mismatches = 0usize;
    for q in &verify_block {
        let stamped = verify_client
            .roundtrip(&query_request(q))
            .expect("verify roundtrip");
        if stamped.epoch != epoch || stamped.digest != digest {
            verify_mismatches += 1;
            continue;
        }
        let served = served_answer(stamped.value);
        let local = answer_api(&view, q);
        if !answers_agree(q, &served, &local, view.image()) {
            eprintln!(
                "{label}: mismatch on {:?}: served {served:?}, local {local:?}",
                q.kind
            );
            verify_mismatches += 1;
        }
    }
    drop(verify_client);

    let stats = server.stats();
    let run = ServeRun {
        backend: label.to_string(),
        epoch,
        digest,
        requests,
        wall_seconds,
        qps: fg_bench::rate(requests as f64, wall_seconds),
        stamp_mismatches,
        verify_queries: verify_block.len(),
        verify_mismatches,
        latency,
        accepted: stats.accepted(),
        served: stats.served(),
        protocol_errors: stats.protocol_errors(),
        disconnects: stats.disconnects(),
    };
    server.shutdown();
    run
}

impl ServeRun {
    fn to_json(&self, setup: &BenchSetup) -> Json {
        Json::obj()
            .field("backend", Json::str(&self.backend))
            .field("epoch", Json::Int(self.epoch as i64))
            .field("digest", Json::str(format!("{:016x}", self.digest)))
            .field("clients", Json::Int(setup.clients as i64))
            .field("readers", Json::Int(setup.readers as i64))
            .field("pipeline", Json::Int(setup.pipeline as i64))
            .field("duration_seconds", Json::Float(self.wall_seconds))
            .field("requests", Json::Int(self.requests as i64))
            .field("queries_per_sec", Json::Float(self.qps))
            .field("latency", self.latency.to_json())
            .field("stamp_mismatches", Json::Int(self.stamp_mismatches as i64))
            .field(
                "verify",
                Json::obj()
                    .field("queries", Json::Int(self.verify_queries as i64))
                    .field("mismatches", Json::Int(self.verify_mismatches as i64)),
            )
            .field(
                "server",
                Json::obj()
                    .field("accepted", Json::Int(self.accepted as i64))
                    .field("served", Json::Int(self.served as i64))
                    .field("protocol_errors", Json::Int(self.protocol_errors as i64))
                    .field("disconnects", Json::Int(self.disconnects as i64)),
            )
    }
}

fn main() {
    let args = BenchArgs::parse(&[
        "workload",
        "n",
        "events",
        "batch",
        "backend",
        "clients",
        "pipeline",
        "readers",
        "duration",
        "verify",
        "query-mix",
        "query-seed",
        "query-hot",
    ]);
    let seed = args.seed(42);
    let n = args.scale_n(args.get("n", 1024usize));
    let events = args.get("events", 50_000usize);
    let batch = args.get("batch", 256usize);
    let name = args.get("workload", "churn".to_string());
    let backend = args.get("backend", "engine".to_string());
    let json_path = args.json_path().unwrap_or("BENCH_serve.json");
    let mix = match args.raw("query-mix") {
        Some(spec) => QueryMix::parse(spec)
            .unwrap_or_else(|e| args.fail(&format!("--query-mix {spec:?}: {e}"))),
        None => QueryMix::parse("dist:60,path:10,stretch:10,deg:10,comp:10").expect("default mix"),
    };
    let mut wl = QueryWorkload::new(0);
    wl.mix = mix;
    wl.seed = args.query_seed(seed.wrapping_add(0x9e37));
    wl.hot = args.get("query-hot", 32usize);
    let setup = BenchSetup {
        clients: args.get("clients", 4usize).max(1),
        duration: Duration::from_secs_f64(args.get("duration", 2.0f64).max(0.05)),
        pipeline: args.get("pipeline", 16usize).max(1),
        readers: args.get("readers", 4usize).max(1),
        verify: args.get("verify", 500usize),
        wl,
    };

    let sc = scenario(&name, n, events, seed);
    let mut runs: Vec<ServeRun> = Vec::new();
    if backend == "engine" || backend == "both" {
        let fg = fg_core::ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
        runs.push(bench_backend("engine", fg, &sc, &setup, batch));
    }
    if backend == "dist" || backend == "both" {
        let net = DistHealer::from_graph(&sc.initial, PlacementPolicy::Adjacent);
        runs.push(bench_backend("fg-dist", net, &sc, &setup, batch));
    }
    assert!(!runs.is_empty(), "unknown --backend {backend:?}");

    let mut table = Table::new(
        &format!(
            "fg-serve — {name} n={n} {events} events, {} clients × pipeline {}, {} readers",
            setup.clients, setup.pipeline, setup.readers
        ),
        [
            "backend",
            "epoch",
            "requests",
            "q/s",
            "p50 µs",
            "p99 µs",
            "p999 µs",
            "stamp errs",
            "verify",
            "mismatches",
        ],
    );
    for run in &runs {
        table.push_row([
            run.backend.clone(),
            run.epoch.to_string(),
            run.requests.to_string(),
            format!("{:.0}", run.qps),
            f2(run.latency.quantile_ns(0.50) as f64 / 1e3),
            f2(run.latency.quantile_ns(0.99) as f64 / 1e3),
            f2(run.latency.quantile_ns(0.999) as f64 / 1e3),
            run.stamp_mismatches.to_string(),
            run.verify_queries.to_string(),
            run.verify_mismatches.to_string(),
        ]);
    }
    println!("{}", table.to_markdown());

    let config = Json::obj()
        .field("workload", Json::str(&name))
        .field("n", Json::Int(n as i64))
        .field("events", Json::Int(events as i64))
        .field("batch", Json::Int(batch as i64))
        .field("seed", Json::Int(seed as i64))
        .field("clients", Json::Int(setup.clients as i64))
        .field("pipeline", Json::Int(setup.pipeline as i64))
        .field("readers", Json::Int(setup.readers as i64))
        .field(
            "duration_seconds",
            Json::Float(setup.duration.as_secs_f64()),
        )
        .field("query_mix", Json::str(setup.wl.mix.spec()))
        .field("query_seed", Json::Int(setup.wl.seed as i64))
        .field("host_cpus", Json::Int(fg_bench::host_cpus() as i64));
    let report = Json::obj()
        .field("bench", Json::str("serve"))
        .field(
            "description",
            Json::str(
                "Closed-loop FGQ1 serving over epoch-pinned frozen snapshots; \
                 latencies are per-request (send to receive) under pipelining.",
            ),
        )
        .field("config", config)
        .field(
            "results",
            Json::Arr(runs.iter().map(|r| r.to_json(&setup)).collect()),
        );
    write_artifact(json_path, &report);

    let bad: u64 = runs
        .iter()
        .map(|r| r.stamp_mismatches + r.verify_mismatches as u64)
        .sum();
    if bad > 0 {
        eprintln!("FAIL: {bad} served answers diverged from the in-process tier");
        std::process::exit(1);
    }
}
