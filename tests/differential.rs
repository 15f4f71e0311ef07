//! Differential suite: the message-passing protocol (`fg_dist::DistHealer`)
//! and the sequential reference engine (`fg_core::ForgivingGraph`) must
//! produce *identical* results — image, ghost, reconstruction forest,
//! **and the typed per-operation reports** — after every single
//! adversarial event, with both driven through the same [`SelfHealer`]
//! façade. This is the convergence claim of `fg_core::plan`: both
//! implementations execute the same pure `ComputeHaft` blueprint, so
//! their states can never drift — and since every `RepairReport` field is
//! structural, the reports cannot drift either.
//!
//! Traces are generated by the adversary library (random failure, targeted
//! hub attack, membership churn) over seeded workloads — well over 100
//! distinct recorded traces in total — then replayed event-by-event
//! through both implementations in lockstep.

use forgiving_graph::adversary::{
    run_attack, Adversary, ChurnAdversary, MaxDegreeDeleter, RandomDeleter,
};
use forgiving_graph::core::{BatchReport, ForgivingGraph, PlacementPolicy, SelfHealer, Slot, VKey};
use forgiving_graph::dist::DistHealer;
use forgiving_graph::graph::generators;

type ForestRow = (
    VKey,
    Option<VKey>,
    Option<VKey>,
    Option<VKey>,
    u32,
    u32,
    Slot,
);

fn engine_forest(fg: &ForgivingGraph) -> Vec<ForestRow> {
    fg.forest()
        .iter()
        .map(|(k, n)| (k, n.parent, n.left, n.right, n.leaves, n.height, n.rep))
        .collect()
}

/// Records a trace by running `adversary` against a scratch engine, then
/// replays it through a fresh engine and a fresh distributed healer —
/// both behind `&mut dyn SelfHealer` — asserting full state equality
/// *and* typed-outcome equality after every event, plus batch-aggregate
/// equality at the end. Returns the number of events checked.
fn lockstep_replay(
    label: &str,
    g: &forgiving_graph::graph::Graph,
    adversary: &mut dyn Adversary,
    policy: PlacementPolicy,
) -> usize {
    let mut scratch = ForgivingGraph::from_graph_with_policy(g, policy).unwrap();
    let log = run_attack(&mut scratch, adversary, 400).unwrap();

    let mut fg = ForgivingGraph::from_graph_with_policy(g, policy).unwrap();
    let mut dist = DistHealer::from_graph(g, policy);
    let mut fg_batch = BatchReport::new();
    let mut dist_batch = BatchReport::new();
    for (step, event) in log.events.iter().enumerate() {
        let (a, b) = {
            let engine: &mut dyn SelfHealer = &mut fg;
            let protocol: &mut dyn SelfHealer = &mut dist;
            (
                protocol.apply_event(event).unwrap(),
                engine.apply_event(event).unwrap(),
            )
        };
        assert_eq!(
            a, b,
            "{label}: typed outcomes diverged at step {step} ({event})"
        );
        dist_batch.push(a);
        fg_batch.push(b);
        assert_eq!(
            SelfHealer::image(&dist),
            fg.image(),
            "{label}: images diverged after step {step} ({event})"
        );
        assert_eq!(
            SelfHealer::ghost(&dist),
            fg.ghost(),
            "{label}: ghosts diverged after step {step} ({event})"
        );
        assert_eq!(
            dist.network().forest_snapshot(),
            engine_forest(&fg),
            "{label}: forests diverged after step {step} ({event})"
        );
    }
    fg.check_invariants().unwrap();

    assert_eq!(fg_batch, dist_batch, "{label}: batch aggregates diverged");

    log.events.len()
}

#[test]
fn protocol_matches_engine_on_recorded_traces() {
    let mut traces = 0usize;
    let mut events = 0usize;
    for seed in 0..12u64 {
        for policy in [PlacementPolicy::Adjacent, PlacementPolicy::PaperExact] {
            let workloads = [
                ("er", generators::connected_erdos_renyi(18, 0.14, seed)),
                ("ba", generators::barabasi_albert(18, 2, seed)),
            ];
            for (wl, g) in workloads {
                // Random failure.
                events += lockstep_replay(
                    &format!("{wl}/random/{seed}/{policy:?}"),
                    &g,
                    &mut RandomDeleter::new(seed, 5),
                    policy,
                );
                // Targeted hub attack.
                events += lockstep_replay(
                    &format!("{wl}/hub/{seed}/{policy:?}"),
                    &g,
                    &mut MaxDegreeDeleter::new(5),
                    policy,
                );
                // Membership churn (inserts + deletes).
                events += lockstep_replay(
                    &format!("{wl}/churn/{seed}/{policy:?}"),
                    &g,
                    &mut ChurnAdversary::new(seed.wrapping_add(7), 0.6, 3, 4, 40),
                    policy,
                );
                traces += 3;
            }
        }
    }
    assert!(traces >= 100, "only {traces} traces replayed");
    assert!(events > 1000, "only {events} events checked");
}

#[test]
fn dist_healer_is_a_self_healer_in_lockstep_with_engine() {
    // The SelfHealer surface lets the adversary driver attack the
    // distributed network directly — run the same strategy against both
    // and compare end states plus the typed outcome logs.
    let g = generators::connected_erdos_renyi(20, 0.12, 3);
    let mut dist = DistHealer::from_graph(&g, PlacementPolicy::Adjacent);
    let mut fg = ForgivingGraph::from_graph(&g).unwrap();
    // Identical deterministic adversaries (same seed) on each.
    let mut adv_a = ChurnAdversary::new(11, 0.55, 3, 4, 60);
    let mut adv_b = ChurnAdversary::new(11, 0.55, 3, 4, 60);
    let log_a = run_attack(&mut dist, &mut adv_a, 60).unwrap();
    let log_b = run_attack(&mut fg, &mut adv_b, 60).unwrap();
    assert_eq!(
        log_a.events, log_b.events,
        "deterministic adversaries agree"
    );
    assert_eq!(
        log_a.report, log_b.report,
        "per-op outcomes agree through the façade"
    );
    assert_eq!(SelfHealer::image(&dist), fg.image());
    assert_eq!(SelfHealer::ghost(&dist), fg.ghost());
    assert_eq!(dist.network().forest_snapshot(), engine_forest(&fg));
}

#[test]
fn every_repair_cost_is_recorded() {
    let g = generators::star(17);
    let mut dist = DistHealer::from_graph(&g, PlacementPolicy::Adjacent);
    for v in 0..8u32 {
        let _ = dist.delete(forgiving_graph::graph::NodeId::new(v)).unwrap();
    }
    assert_eq!(dist.costs().len(), 8);
    // Hub repair dominates the cascade.
    let worst = dist.costs().iter().max_by_key(|c| c.messages).unwrap();
    assert_eq!(worst.victim_degree, 16);
}
