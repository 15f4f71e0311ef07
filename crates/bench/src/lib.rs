//! # fg-bench — the experiment harness
//!
//! One binary per paper artifact (see DESIGN.md §5):
//! E1/E2 reproduce Theorem 1's degree and stretch bounds, E3 reproduces
//! Lemma 4's repair costs from the message-passing protocol, E4 the
//! Theorem 2 lower bound, E5/E9 the comparisons against the Forgiving
//! Tree and naive healers, E6–E8 the haft lemmas and the reconstruction-
//! tree distance claim, and E10 Lemma 3's helper accounting.
//!
//! Each binary prints markdown tables to stdout; all of them share the
//! [`args`] flag parser (`--seed` / `--scale` / `--json`). The
//! [`scenario`](mod@scenario) module is the throughput side of the
//! harness: named end-to-end workloads replayed through any healer with
//! batched ingestion and a snapshot publish per batch
//! ([`ScenarioRunner::run`]), reported as machine-readable
//! `BENCH_*.json` via [`json`]. The [`queries`] module holds the query
//! streams and the live-answer reference the repo benchmark's read
//! workloads use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod json;
pub mod latency;
pub mod queries;
pub mod replay;
pub mod scenario;

use fg_core::{ForgivingGraph, PlacementPolicy};
use fg_graph::{Graph, NodeId};

pub use args::{or_exit, write_artifact, BenchArgs};
pub use latency::LatencyHistogram;
pub use queries::{
    answer_api, answers_agree, Answer, Query, QueryKind, QueryMix, QueryStream, QueryWorkload,
    QUERY_KINDS,
};
pub use scenario::{scenario, RunResult, Scenario, ScenarioRunner, WORKLOADS};

/// The standard workload families the sweeps use.
pub fn workload(name: &str, n: usize, seed: u64) -> Graph {
    match name {
        "star" => fg_graph::generators::star(n),
        "cycle" => fg_graph::generators::cycle(n),
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            fg_graph::generators::grid(side, side.max(1))
        }
        "er" => fg_graph::generators::connected_erdos_renyi(n, 8.0 / n as f64, seed),
        "ba" => fg_graph::generators::barabasi_albert(n, 2, seed),
        other => panic!("unknown workload {other}"),
    }
}

/// Builds a Forgiving Graph over a named workload.
pub fn engine(name: &str, n: usize, seed: u64, policy: PlacementPolicy) -> ForgivingGraph {
    ForgivingGraph::from_graph_with_policy(&workload(name, n, seed), policy)
        .expect("workloads are tombstone-free")
}

/// `⌈log₂ n⌉`, the paper's stretch bound (narrowed from the shared
/// `fg_core::api::ceil_log2` definition).
pub fn ceil_log2(n: usize) -> u32 {
    fg_core::api::ceil_log2(n) as u32
}

/// `count` seeded `(u, v)` probe pairs drawn uniformly from the ids
/// `0..universe`, live and dead alike (a dead endpoint must answer
/// `None`, not fail): SplitMix64 from `salt`, deterministic and
/// dependency-free, so the differential suites and `repl_node` probe
/// reproducible pair sets.
pub fn probe_pairs(universe: usize, salt: u64, count: usize) -> Vec<(NodeId, NodeId)> {
    let n = universe.max(1) as u64;
    let mut state = salt ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        NodeId::new(((z ^ (z >> 31)) % n) as u32)
    };
    (0..count).map(|_| (next(), next())).collect()
}

/// `numerator / denominator`, or `0.0` when the denominator is not a
/// positive number — the one divide-by-zero guard every rate in the
/// harness shares (`events_per_sec`, per-batch means, profile
/// coverage). Centralized so no report path can emit
/// `inf`/`NaN` into a JSON artifact when a timed region is empty or
/// faster than the clock's resolution.
pub fn rate(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The host's available parallelism (1 if unknown) — recorded into
/// every benchmark JSON artifact so results can be compared across
/// machines.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
