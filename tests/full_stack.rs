//! Cross-crate integration: adversaries drive the engine, metrics verify
//! the paper contract, and the distributed protocol stays in lockstep.

use forgiving_graph::adversary::{
    run_attack, ChurnAdversary, Composite, CutPointDeleter, MaxDegreeDeleter, PreferentialInserter,
    RandomDeleter, StarSmash,
};
use forgiving_graph::baselines::{CycleHealer, ForgivingTree, NoHealer};
use forgiving_graph::core::{ForgivingGraph, PlacementPolicy, SelfHealer};
use forgiving_graph::dist::DistHealer;
use forgiving_graph::graph::{generators, traversal, NodeId};
use forgiving_graph::metrics::{cost_stats, measure, measure_sampled, stretch_exact};

#[test]
fn paper_contract_under_every_adversary() {
    let g = generators::barabasi_albert(80, 2, 5);
    let mut cases: Vec<(&str, Box<dyn forgiving_graph::adversary::Adversary>)> = vec![
        ("random", Box::new(RandomDeleter::new(1, 30))),
        ("max-degree", Box::new(MaxDegreeDeleter::new(30))),
        ("cut-point", Box::new(CutPointDeleter::new(50))),
        ("star-smash", Box::new(StarSmash::new(2, 10, 3))),
        ("churn", Box::new(ChurnAdversary::new(3, 0.5, 3, 10, 80))),
        (
            "grow-then-smash",
            Box::new(Composite::new(
                "grow-then-smash",
                vec![
                    Box::new(PreferentialInserter::new(4, 2, 20)),
                    Box::new(MaxDegreeDeleter::new(60)),
                ],
            )),
        ),
    ];
    for (name, adversary) in &mut cases {
        let mut fg = ForgivingGraph::from_graph(&g).unwrap();
        run_attack(&mut fg, adversary.as_mut(), 200).unwrap();
        fg.check_invariants()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let health = measure_sampled(&fg, 24, 9);
        assert!(health.connected, "{name} disconnected the network");
        assert!(
            health.stretch.max <= fg.stretch_bound() as f64,
            "{name}: stretch {} above bound {}",
            health.stretch.max,
            fg.stretch_bound()
        );
        assert!(
            health.degree.max_ratio <= 4.0,
            "{name}: degree ratio {}",
            health.degree.max_ratio
        );
    }
}

#[test]
fn repair_costs_stay_in_theorem_envelope() {
    let g = generators::connected_erdos_renyi(120, 0.07, 11);
    let mut fg = ForgivingGraph::from_graph(&g).unwrap();
    let mut reports = Vec::new();
    loop {
        let alive: Vec<NodeId> = fg.image().iter().collect();
        if alive.len() <= 40 {
            break;
        }
        // Drive deletions directly to collect the per-repair reports.
        let victim = alive[(reports.len() * 7) % alive.len()];
        reports.push(fg.delete(victim).unwrap());
    }
    let stats = cost_stats(&reports, fg.nodes_ever());
    assert_eq!(stats.repairs, 80);
    assert!(
        stats.max_normalized_churn < 8.0,
        "churn not O(d log n): {}",
        stats.max_normalized_churn
    );
    assert!(stats.max_rounds <= 8, "BT_v rounds not logarithmic");
}

#[test]
fn distributed_and_sequential_agree_after_full_campaign() {
    let g = generators::grid(4, 4);
    let mut dist = DistHealer::from_graph(&g, PlacementPolicy::Adjacent);
    let mut fg = ForgivingGraph::from_graph(&g).unwrap();
    // A campaign mixing interior and corner deletions plus insertions,
    // driven through the shared façade; the typed reports must agree.
    for v in [5u32, 10, 0, 15, 6] {
        let a = SelfHealer::delete(&mut dist, NodeId::new(v)).unwrap();
        let b = fg.delete(NodeId::new(v)).unwrap();
        assert_eq!(a, b, "repair reports diverged at n{v}");
    }
    let a = SelfHealer::insert(&mut dist, &[NodeId::new(1), NodeId::new(14)]).unwrap();
    let b = SelfHealer::insert(&mut fg, &[NodeId::new(1), NodeId::new(14)]).unwrap();
    assert_eq!(a, b);
    let a = SelfHealer::delete(&mut dist, NodeId::new(9)).unwrap();
    let b = fg.delete(NodeId::new(9)).unwrap();
    assert_eq!(a, b);
    assert_eq!(SelfHealer::image(&dist), fg.image());
    // Every repair stayed within Lemma 4's message envelope.
    for cost in dist.costs() {
        assert!(cost.normalized_messages() < 30.0);
    }
}

#[test]
fn forgiving_graph_beats_forgiving_tree_on_stretch() {
    // The headline improvement: stretch vs G' under hub attacks.
    let g = generators::barabasi_albert(90, 2, 17);
    let mut fg = ForgivingGraph::from_graph(&g).unwrap();
    let mut adv = MaxDegreeDeleter::new(45);
    let log = run_attack(&mut fg, &mut adv, 90).unwrap();

    let mut ft = ForgivingTree::from_graph(&g);
    let ft_report = ft.apply_batch(&log.events).unwrap();
    assert_eq!(ft_report.len(), log.events.len());
    assert_eq!(ft_report.deletes, log.deletions as u64);

    let s_fg = stretch_exact(fg.image(), fg.ghost());
    let s_ft = stretch_exact(ft.image(), ft.ghost());
    assert!(
        s_fg.max <= s_ft.max + 1e-9,
        "FG stretch {} should not exceed FT stretch {}",
        s_fg.max,
        s_ft.max
    );
    // And the Forgiving Tree needed a preprocessing phase; FG did not.
    assert!(ft.init_messages() > 0);
}

#[test]
fn no_heal_control_disconnects_where_fg_survives() {
    let g = generators::star(32);
    let mut fg = ForgivingGraph::from_graph(&g).unwrap();
    let mut none = NoHealer::from_graph(&g);
    let mut ring = CycleHealer::from_graph(&g);
    for healer in [&mut fg as &mut dyn SelfHealer, &mut none, &mut ring] {
        let _ = healer.delete(NodeId::new(0)).unwrap();
    }
    assert!(traversal::is_connected(fg.image()));
    assert!(traversal::is_connected(ring.image()));
    assert!(!traversal::is_connected(none.image()));
    // Ring healing has linear stretch, FG logarithmic.
    let s_fg = measure(&fg);
    let s_ring = measure(&ring);
    assert!(s_fg.stretch.max <= s_ring.stretch.max);
}

#[test]
fn long_mixed_campaign_drains_cleanly() {
    let g = generators::cycle(12);
    let mut fg = ForgivingGraph::from_graph(&g).unwrap();
    let mut adv = ChurnAdversary::new(5, 0.65, 2, 2, 400);
    run_attack(&mut fg, &mut adv, 400).unwrap();
    fg.check_invariants().unwrap();
    // Now delete everyone.
    let alive: Vec<NodeId> = fg.image().iter().collect();
    for v in alive {
        let _ = fg.delete(v).unwrap();
    }
    assert_eq!(fg.alive_count(), 0);
    assert_eq!(fg.forest_len(), 0, "no virtual nodes may leak");
    assert_eq!(
        fg.stats().rep_fallbacks,
        0,
        "representative cache never stale"
    );
}
