//! Property-based tests: the paper's guarantees must hold for *arbitrary*
//! adversarial event sequences, not just the hand-picked scenarios.

use fg_core::{ForgivingGraph, PlacementPolicy};
use fg_graph::{generators, traversal, NodeId};
use proptest::prelude::*;

/// A compressed adversarial schedule: each step either deletes the live
/// node at `index % alive` or inserts a node attached to `1 + (fan %
/// alive)` live nodes starting at a rotating offset. This makes arbitrary
/// `u8` vectors decode into valid event sequences (shrinkable by
/// proptest).
#[derive(Debug, Clone)]
struct Schedule(Vec<u8>);

fn run_schedule(
    seed_graph: fg_graph::Graph,
    schedule: &Schedule,
    policy: PlacementPolicy,
    check_every: usize,
) -> ForgivingGraph {
    let mut fg = ForgivingGraph::from_graph_with_policy(&seed_graph, policy).unwrap();
    for (step, &byte) in schedule.0.iter().enumerate() {
        let alive: Vec<NodeId> = fg.image().iter().collect();
        if alive.len() <= 2 {
            break;
        }
        if byte & 1 == 0 {
            let victim = alive[(byte as usize / 2) % alive.len()];
            let _ = fg.delete(victim).unwrap();
        } else {
            let fan = 1 + (byte as usize / 2) % 3.min(alive.len());
            let start = (byte as usize) % alive.len();
            let nbrs: Vec<NodeId> = (0..fan).map(|i| alive[(start + i) % alive.len()]).collect();
            fg.insert(&nbrs).unwrap();
        }
        if step % check_every == 0 {
            fg.check_invariants().unwrap();
        }
    }
    fg.check_invariants().unwrap();
    fg
}

/// Exhaustive stretch check against the bound `⌈log₂ n⌉` (Theorem 1.2).
fn assert_stretch_and_connectivity(fg: &ForgivingGraph) {
    let bound = fg.stretch_bound();
    let alive: Vec<NodeId> = fg.image().iter().collect();
    for &x in alive.iter().take(12) {
        let dg = traversal::bfs_distances(fg.ghost(), x);
        let di = traversal::bfs_distances(fg.image(), x);
        for &y in &alive {
            match (dg[y.index()], di[y.index()]) {
                (Some(a), Some(b)) => {
                    assert!(b <= bound * a.max(1), "stretch violated: {b} > {bound}·{a}")
                }
                (Some(_), None) => panic!("image lost connectivity"),
                (None, Some(_)) => panic!("image gained phantom connectivity"),
                (None, None) => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1 (all parts) on random churn over a random connected graph.
    #[test]
    fn contract_holds_on_random_churn(
        seed in 0u64..500,
        bytes in prop::collection::vec(any::<u8>(), 1..60),
    ) {
        let g = generators::connected_erdos_renyi(24, 0.08, seed);
        let fg = run_schedule(g, &Schedule(bytes), PlacementPolicy::Adjacent, 7);
        prop_assert!(fg.max_degree_ratio() <= 4.0);
        assert_stretch_and_connectivity(&fg);
    }

    /// Same contract under the paper-exact placement policy.
    #[test]
    fn contract_holds_under_paper_exact_policy(
        seed in 0u64..200,
        bytes in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let g = generators::connected_erdos_renyi(18, 0.1, seed);
        let fg = run_schedule(g, &Schedule(bytes), PlacementPolicy::PaperExact, 9);
        prop_assert!(fg.max_degree_ratio() <= 4.0);
        assert_stretch_and_connectivity(&fg);
    }

    /// Delete-only sequences on assorted topologies drain cleanly.
    #[test]
    fn full_cascades_drain_the_forest(
        seed in 0u64..300,
        shape in 0usize..5,
    ) {
        let g = match shape {
            0 => generators::path(14),
            1 => generators::star(14),
            2 => generators::random_tree(14, seed),
            3 => generators::connected_erdos_renyi(14, 0.15, seed),
            _ => generators::barabasi_albert(14, 2, seed),
        };
        let mut fg = ForgivingGraph::from_graph(&g).unwrap();
        // Delete in a seed-dependent order.
        let mut order: Vec<u32> = (0..14).collect();
        let rot = (seed as usize) % 14;
        order.rotate_left(rot);
        for v in order {
            let _ = fg.delete(NodeId::new(v)).unwrap();
            fg.check_invariants().unwrap();
        }
        prop_assert_eq!(fg.alive_count(), 0);
        prop_assert_eq!(fg.forest_len(), 0);
    }

    /// The healed image never exceeds the virtual-forest edge budget:
    /// `m_image ≤ m_intact + forest edge count`, and the forest obeys the
    /// helper-per-slot limit so total edges stay linear in `|G'|`.
    #[test]
    fn edge_budget_stays_linear(
        seed in 0u64..300,
        bytes in prop::collection::vec(any::<u8>(), 1..50),
    ) {
        let g = generators::connected_erdos_renyi(20, 0.1, seed);
        let fg = run_schedule(g, &Schedule(bytes), PlacementPolicy::Adjacent, 11);
        let ghost_edges = fg.ghost().edge_count();
        // Leaves ≤ 2·|E(G')| and helpers < leaves, each helper adds ≤ 2
        // tree edges: image edges ≤ intact + 2·(leaves − #trees).
        prop_assert!(fg.image().edge_count() <= ghost_edges + 2 * fg.forest_len());
    }

    /// RT depths never exceed ⌈log₂(leaf count)⌉ (Lemma 1.3 carried
    /// through every merge the engine ever performs).
    #[test]
    fn rt_depths_stay_logarithmic(
        seed in 0u64..300,
        bytes in prop::collection::vec(any::<u8>(), 1..60),
    ) {
        let g = generators::barabasi_albert(20, 2, seed);
        let fg = run_schedule(g, &Schedule(bytes), PlacementPolicy::Adjacent, 13);
        for (leaves, depth) in fg.rt_shapes() {
            let expect = if leaves <= 1 { 0 } else { 32 - (leaves - 1).leading_zeros() };
            prop_assert!(depth <= expect, "RT with {leaves} leaves has depth {depth}");
        }
    }
}
