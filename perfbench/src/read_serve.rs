//! `read-serve`: closed-loop pipelined FGQ1 reads against the standard
//! churn snapshot, no writes.

use crate::reads::{self, ReadTally};
use crate::{layers, sub_seed, timed_setup, warmup_seconds, Config, Corrupt, Report, SETUP_REPS};
use fg_bench::{answer_api, answers_agree, Query, QueryMix, QueryStream, QueryWorkload};
use fg_core::{ForgivingGraph, GraphView, SelfHealer};
use fg_serve::{Publisher, Server, ServerConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Connections (one client thread each) and requests in flight per
/// connection.
pub const CLIENTS: usize = 2;
pub const DEPTH: usize = 16;
/// Windows the measured interval is split into for medians.
pub const WINDOWS: usize = 10;
pub const MIX: &str = "dist:60,path:10,stretch:10,deg:10,comp:10";

/// The churn snapshot's size: initial nodes and trace events.
pub fn churn_size(tiny: bool) -> (usize, usize) {
    if tiny {
        (64, 400)
    } else {
        (1024, 50_000)
    }
}

/// Per-client deterministic query pools drawn from `seed` against the
/// snapshot's image.
pub fn query_pools(
    image: &fg_graph::Graph,
    seed: u64,
    clients: usize,
    size: usize,
) -> Vec<Vec<Query>> {
    (0..clients)
        .map(|i| {
            let mut wl = QueryWorkload::new(0);
            wl.mix = QueryMix::parse(MIX).expect("the benchmark mix parses");
            wl.seed = sub_seed(seed, 100 + i as u64);
            wl.hot = 32;
            QueryStream::new(&wl).block(image, size)
        })
        .collect()
}

/// Runs one closed-loop client per pool for `seconds` and merges them.
pub fn load(addr: std::net::SocketAddr, pools: &[Vec<Query>], seconds: f64) -> ReadTally {
    let window = (Instant::now(), seconds, WINDOWS);
    let tallies: Vec<ReadTally> = std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter()
            .map(|pool| s.spawn(move || reads::closed_loop(addr, pool, DEPTH, window)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read client thread"))
            .collect()
    });
    let mut all = ReadTally::default();
    for t in tallies {
        all.merge(t);
    }
    all
}

/// Reports the read trio from a merged tally: the median window's
/// completions per second, p50 and p90.
pub fn read_metrics(tally: &mut ReadTally, report: &mut Report) {
    report.metric("ops_per_s", tally.latency.rate(), "1/s");
    report.metric("op_p50_us", tally.latency.quantile_us(0.50), "us");
    report.metric("op_p90_us", tally.latency.quantile_us(0.90), "us");
    report.note("p99_us", tally.latency.quantile_us(0.99));
    report.note("read_samples", tally.latency.len());
}

struct Stack {
    publisher: Publisher<ForgivingGraph>,
    server: Server,
}

pub fn run(cfg: &Config, report: &mut Report) {
    let (n, events) = churn_size(cfg.tiny);
    let mut certs = Vec::new();
    let (stack, setup_s) = timed_setup(SETUP_REPS, |_| {
        let sc = fg_bench::scenario("churn", n, events, crate::SNAPSHOT_SEED);
        let fg = ForgivingGraph::from_graph(&sc.initial).expect("churn G0 is tombstone-free");
        let mut publisher = Publisher::new(fg);
        for chunk in sc.events.chunks(256) {
            let _ = publisher
                .apply_and_publish(chunk)
                .expect("scenario traces are legal");
        }
        let config = ServerConfig {
            readers: CLIENTS,
            ..ServerConfig::default()
        };
        let server =
            Server::bind(("127.0.0.1", 0), publisher.hub(), config).expect("bind loopback");
        certs.push((publisher.hub().epoch(), publisher.digest()));
        Stack { publisher, server }
    });
    report.metric("setup_s", setup_s, "s");
    if certs.windows(2).any(|w| w[0] != w[1]) {
        report.problem(format!(
            "set-up replays disagree on the certificate: {certs:?}"
        ));
    }
    let (epoch, digest) = certs[0];
    let healer = stack.publisher.healer();
    report.note("nodes_ever", healer.ghost().nodes_ever());
    report.note("alive", healer.image().node_count());
    report.note("ghost_edges", healer.ghost().edge_count());
    report.note("flush_policy", "none (in-memory publisher, no writes)");
    report.note(
        "load",
        format!("{CLIENTS} clients x depth {DEPTH}, mix {MIX}"),
    );

    let pools = query_pools(healer.image(), cfg.seed, CLIENTS, 4096);
    let addr = stack.server.addr();
    let warm = load(addr, &pools, warmup_seconds(cfg));
    let mut tally = load(addr, &pools, cfg.seconds);
    read_metrics(&mut tally, report);
    tally.merge(warm);

    if cfg.trace {
        // The layers are timed after the load, on the same queries, so
        // the load itself carries no tracing.
        let sweep: Vec<Query> = pools.concat();
        let layer_ns = layers::read_sweep(&stack.publisher.hub(), &sweep, report);
        let probe = &pools[0][..pools[0].len().min(2000)];
        layers::read_residual(addr, probe, layer_ns, report);
    }

    let certs: BTreeMap<u64, u64> = [(epoch, digest)].into_iter().collect();
    let bad_stamps = reads::check_stamps(&tally, &certs, cfg.corrupt, report);
    let view = healer.view();
    let mut bad_answers = 0u64;
    for (i, spot) in tally.spots.iter().enumerate() {
        let mut served = spot.answer.clone();
        if i == 0 && cfg.corrupt == Some(Corrupt::Answer) {
            served = corrupt_answer(served);
        }
        let local = answer_api(&view, &spot.query);
        if spot.epoch != epoch || !answers_agree(&spot.query, &served, &local, view.image()) {
            bad_answers += 1;
            report.problem(format!(
                "served {served:?} for {:?}, in-process answer is {local:?}",
                spot.query
            ));
        }
    }
    report.note("spot_checked", tally.spots.len());
    report.attempted = tally.attempted;
    report.failed = tally.failed + bad_stamps + bad_answers;
    drop(stack.server);
}

/// A wrong answer of the same shape, for the gate's self-test.
pub fn corrupt_answer(answer: fg_bench::Answer) -> fg_bench::Answer {
    use fg_bench::Answer;
    match answer {
        Answer::Dist(d) => Answer::Dist(Some(d.map_or(1, |d| d + 1))),
        Answer::Path(p) => Answer::Path(if p.is_some() { None } else { Some(Vec::new()) }),
        Answer::Stretch(s) => Answer::Stretch(Some(s.map_or(1.0, |s| s + 1.0))),
        Answer::Degree(d) => Answer::Degree(Some(d.map_or(1, |d| d + 1))),
        Answer::Component(c) => Answer::Component(!c),
    }
}
