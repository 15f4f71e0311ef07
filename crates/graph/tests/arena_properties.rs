//! Property tests for the arena-layout invariants of `fg-graph`:
//! tombstoned ids are never reused, sorted adjacency stays canonical, and
//! the sorted containers behave like reference models.

use fg_graph::{Graph, NodeId, SortedMap, SortedSet};
use proptest::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Applies a random op tape to a graph, mirroring it into a naive model
/// (edge list + alive list), and returns both.
fn build_graph(ops: &[u8]) -> (Graph, Vec<bool>, Vec<(u32, u32)>) {
    let mut g = Graph::with_nodes(4);
    let mut alive = vec![true; 4];
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for chunk in ops.chunks_exact(3) {
        let (op, a, b) = (chunk[0] % 4, chunk[1], chunk[2]);
        let total = alive.len() as u32;
        let (u, v) = ((a as u32) % total, (b as u32) % total);
        match op {
            0 => {
                g.add_node();
                alive.push(true);
            }
            1 => {
                if u != v && alive[u as usize] && alive[v as usize] {
                    let added = g.ensure_edge(n(u), n(v)).expect("live endpoints");
                    let key = (u.min(v), u.max(v));
                    if added {
                        edges.push(key);
                    }
                }
            }
            2 => {
                if alive[u as usize] {
                    g.remove_node(n(u)).expect("alive node");
                    alive[u as usize] = false;
                    edges.retain(|&(x, y)| x != u && y != u);
                }
            }
            _ => {
                if let Some(pos) = edges
                    .iter()
                    .position(|&(x, y)| (x, y) == (u.min(v), u.max(v)))
                {
                    g.remove_edge(n(u), n(v)).expect("edge tracked by model");
                    edges.swap_remove(pos);
                }
            }
        }
    }
    (g, alive, edges)
}

proptest! {
    /// Ids are never reused: every fresh node id equals the number of ids
    /// ever created, regardless of interleaved removals.
    #[test]
    fn node_ids_never_reused(ops in prop::collection::vec(any::<u8>(), 0..240)) {
        let (mut g, alive, _) = build_graph(&ops);
        let ever = g.nodes_ever();
        prop_assert_eq!(ever, alive.len());
        // Tombstones stay dead and a fresh id continues the sequence.
        let fresh = g.add_node();
        prop_assert_eq!(fresh, n(ever as u32));
        for (i, &a) in alive.iter().enumerate() {
            prop_assert_eq!(g.contains(n(i as u32)), a);
            if !a {
                prop_assert_eq!(g.degree(n(i as u32)), 0);
                prop_assert!(g.remove_node(n(i as u32)).is_err(), "double remove must fail");
            }
        }
    }

    /// The graph agrees with the naive edge-list model, and every
    /// adjacency list is strictly ascending (the determinism the replay
    /// suites rely on).
    #[test]
    fn adjacency_matches_model_and_stays_sorted(ops in prop::collection::vec(any::<u8>(), 0..240)) {
        let (g, _, mut edges) = build_graph(&ops);
        edges.sort_unstable();
        let mut seen: Vec<(u32, u32)> = g.edges().map(|e| (e.lo().raw(), e.hi().raw())).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, edges);
        prop_assert_eq!(g.degree_sum(), 2 * g.edge_count());
        for v in g.iter() {
            let nbrs = g.neighbor_vec(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted adjacency at {}", v);
        }
    }

    /// `SortedSet` behaves like a sorted, deduplicated `Vec` under random
    /// insert/remove tapes.
    #[test]
    fn sorted_set_matches_model(ops in prop::collection::vec((any::<bool>(), any::<u8>()), 0..120)) {
        let mut s: SortedSet<u8> = SortedSet::new();
        let mut model: Vec<u8> = Vec::new();
        for &(insert, v) in &ops {
            if insert {
                prop_assert_eq!(s.insert(v), !model.contains(&v));
                if !model.contains(&v) {
                    model.push(v);
                }
            } else {
                prop_assert_eq!(s.remove(&v), model.contains(&v));
                model.retain(|&x| x != v);
            }
        }
        model.sort_unstable();
        prop_assert_eq!(s.iter().copied().collect::<Vec<_>>(), model);
    }

    /// `SortedMap` behaves like `BTreeMap` under random tapes, including
    /// iteration order.
    #[test]
    fn sorted_map_matches_btreemap(ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..120)) {
        let mut m: SortedMap<u8, u8> = SortedMap::new();
        let mut model: std::collections::BTreeMap<u8, u8> = std::collections::BTreeMap::new();
        for &(k, v, insert) in &ops {
            if insert {
                prop_assert_eq!(m.insert(k, v), model.insert(k, v));
            } else {
                prop_assert_eq!(m.remove(&k), model.remove(&k));
            }
        }
        let got: Vec<(u8, u8)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        let want: Vec<(u8, u8)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
    }
}
