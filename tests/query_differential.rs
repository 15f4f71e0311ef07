//! Query differential suite: every answer the read API gives — through
//! an engine view, a distributed-protocol view, or a frozen CSR snapshot
//! of either (`FrozenView`, the dense kernels the server answers from) —
//! must equal fresh-BFS ground truth on the materialized image graph, at
//! many points along the same 144 adversarial traces the state
//! differential suite replays (12 seeds × 2 placement policies × 2
//! workloads × 3 adversaries). The frozen path is held to a stricter bar
//! than agreement: answers must be **bit-identical** to the live view's,
//! including shortest-path node sequences, on both backends.
//!
//! Checked per checkpoint, for a seeded pair sample:
//!
//! * `distance(u, v)` equals the BFS distance vector entry;
//! * `path(u, v)` exists iff `distance` does, has exactly
//!   `distance + 1` nodes, starts at `u`, ends at `v`, and walks real
//!   image edges;
//! * `same_component` equals distance reachability;
//! * `stretch(u, v)` equals the ratio convention applied to fresh ghost
//!   and image BFS vectors (the same convention `fg_metrics` aggregates);
//! * engine and protocol views agree with each other and carry the same
//!   epoch.

use forgiving_graph::adversary::{
    run_attack, Adversary, ChurnAdversary, MaxDegreeDeleter, RandomDeleter,
};
use forgiving_graph::bench::probe_pairs;
use forgiving_graph::core::{
    stretch_ratio, ForgivingGraph, GraphView, PlacementPolicy, QueryOps, SelfHealer,
};
use forgiving_graph::dist::DistHealer;
use forgiving_graph::graph::{generators, traversal, Graph, NodeId};

/// Ground truth for one pair from fresh BFS vectors on the materialized
/// graphs: `(image distance, ghost distance, stretch)`.
fn ground_truth(
    image: &Graph,
    ghost: &Graph,
    u: NodeId,
    v: NodeId,
) -> (Option<u32>, Option<u32>, Option<f64>) {
    let di = if image.contains(u) {
        traversal::bfs_distances(image, u)
            .get(v.index())
            .copied()
            .flatten()
    } else {
        None
    };
    let dg = if ghost.contains(u) {
        traversal::bfs_distances(ghost, u)
            .get(v.index())
            .copied()
            .flatten()
    } else {
        None
    };
    let stretch = if image.contains(u) && image.contains(v) {
        stretch_ratio(dg, di)
    } else {
        None
    };
    (di, dg, stretch)
}

fn check_view(label: &str, step: usize, view: &impl GraphView, pairs: &[(NodeId, NodeId)]) {
    // Freeze once per checkpoint — the epoch-stamped CSR snapshot every
    // frozen-path read below runs against.
    let frozen = view.freeze();
    assert_eq!(
        frozen.epoch(),
        view.epoch(),
        "{label} step {step}: frozen epoch"
    );
    for &(u, v) in pairs {
        let (want_d, _, want_s) = ground_truth(view.image(), view.ghost(), u, v);
        let ctx = format!("{label} step {step} pair ({u}, {v})");

        assert_eq!(view.distance(u, v), want_d, "{ctx}: distance");
        assert_eq!(view.same_component(u, v), want_d.is_some(), "{ctx}: comp");
        assert_eq!(view.stretch(u, v), want_s, "{ctx}: stretch");
        match (view.path(u, v), want_d) {
            (None, None) => {}
            (Some(path), Some(d)) => {
                assert_eq!(path.len() as u32, d + 1, "{ctx}: path length");
                assert_eq!(path.first(), Some(&u), "{ctx}: path start");
                assert_eq!(path.last(), Some(&v), "{ctx}: path end");
                for pair in path.windows(2) {
                    assert!(
                        view.image().has_edge(pair[0], pair[1]),
                        "{ctx}: path edge {pair:?}"
                    );
                }
            }
            (got, want) => panic!("{ctx}: path {got:?} vs distance {want:?}"),
        }
        assert_eq!(
            view.degree(u),
            view.image().contains(u).then(|| view.image().degree(u)),
            "{ctx}: degree"
        );

        // The frozen CSR snapshot must be *bit-identical* to the live
        // view — not just equally short paths, the same node sequence:
        // the dense remap is monotone and the bidirectional kernel
        // mirrors the live traversal order exactly.
        assert_eq!(frozen.distance(u, v), want_d, "{ctx}: frozen distance");
        assert_eq!(frozen.path(u, v), view.path(u, v), "{ctx}: frozen path");
        assert_eq!(
            frozen.same_component(u, v),
            want_d.is_some(),
            "{ctx}: frozen comp"
        );
        assert_eq!(frozen.stretch(u, v), want_s, "{ctx}: frozen stretch");
        assert_eq!(frozen.degree(u), view.degree(u), "{ctx}: frozen degree");
    }
}

/// Records a trace with a scratch engine, then replays it through a
/// fresh engine and a fresh distributed healer, checking query answers
/// against ground truth at every `stride`-th event (and the last).
/// Returns the number of checkpoints verified.
fn lockstep_query_replay(
    label: &str,
    g: &Graph,
    adversary: &mut dyn Adversary,
    policy: PlacementPolicy,
    stride: usize,
    probes: usize,
) -> usize {
    let mut scratch = ForgivingGraph::from_graph_with_policy(g, policy).unwrap();
    let log = run_attack(&mut scratch, adversary, 400).unwrap();

    let mut fg = ForgivingGraph::from_graph_with_policy(g, policy).unwrap();
    let mut dist = DistHealer::from_graph(g, policy);
    let mut checkpoints = 0usize;
    let last = log.events.len().saturating_sub(1);
    for (step, event) in log.events.iter().enumerate() {
        let a = SelfHealer::apply_event(&mut fg, event).unwrap();
        let b = SelfHealer::apply_event(&mut dist, event).unwrap();
        assert_eq!(a, b, "{label}: outcomes diverged at step {step}");
        if step % stride != 0 && step != last {
            continue;
        }
        checkpoints += 1;
        let ev = fg.view();
        let dv = SelfHealer::view(&dist);
        assert_eq!(ev.epoch(), dv.epoch(), "{label}: epochs diverged at {step}");
        let pairs = probe_pairs(ev.ghost().nodes_ever(), step as u64 ^ ev.epoch(), probes);
        check_view(&format!("{label}/engine"), step, &ev, &pairs);
        check_view(&format!("{label}/dist"), step, &dv, &pairs);
    }
    checkpoints
}

#[test]
fn query_answers_match_fresh_bfs_on_all_traces() {
    let mut traces = 0usize;
    let mut checkpoints = 0usize;
    for seed in 0..12u64 {
        for policy in [PlacementPolicy::Adjacent, PlacementPolicy::PaperExact] {
            let workloads = [
                ("er", generators::connected_erdos_renyi(18, 0.14, seed)),
                ("ba", generators::barabasi_albert(18, 2, seed)),
            ];
            for (wl, g) in workloads {
                checkpoints += lockstep_query_replay(
                    &format!("{wl}/random/{seed}/{policy:?}"),
                    &g,
                    &mut RandomDeleter::new(seed, 5),
                    policy,
                    2,
                    4,
                );
                checkpoints += lockstep_query_replay(
                    &format!("{wl}/hub/{seed}/{policy:?}"),
                    &g,
                    &mut MaxDegreeDeleter::new(5),
                    policy,
                    2,
                    4,
                );
                checkpoints += lockstep_query_replay(
                    &format!("{wl}/churn/{seed}/{policy:?}"),
                    &g,
                    &mut ChurnAdversary::new(seed.wrapping_add(7), 0.6, 3, 4, 40),
                    policy,
                    3,
                    4,
                );
                traces += 3;
            }
        }
    }
    assert_eq!(traces, 144, "the full trace corpus must be covered");
    assert!(checkpoints > 1000, "only {checkpoints} checkpoints checked");
}
