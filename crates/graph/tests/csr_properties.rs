//! Property tests for the frozen CSR snapshot layer: construction
//! mirrors the live adjacency exactly, the dense remap is a monotone
//! bijection over the live ids, the bidirectional kernels return
//! bit-identical answers to [`fg_graph::traversal`] on random churned
//! graphs, and advancing a snapshot equals freezing afresh — the
//! contract the frozen query path is built on.

use fg_graph::{generators, traversal, FrozenCsr, Graph, NodeId};
use proptest::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// A seeded cycle after a random op tape ([`apply_ops`]), so freezes
/// see tombstones, isolated survivors and multi-component remainders.
fn churned_graph(base: usize, ops: &[u8]) -> Graph {
    let mut g = generators::cycle(base);
    apply_ops(&mut g, ops);
    g
}

/// Applies a random op tape: node adds, edge adds, node removals and
/// edge removals, each byte triple one op over ids ever issued.
fn apply_ops(g: &mut Graph, ops: &[u8]) {
    for chunk in ops.chunks_exact(3) {
        let (op, a, b) = (chunk[0] % 4, chunk[1] as u32, chunk[2] as u32);
        let total = g.nodes_ever() as u32;
        let (u, v) = (a % total, b % total);
        match op {
            0 => {
                g.add_node();
            }
            1 => {
                if u != v && g.contains(n(u)) && g.contains(n(v)) {
                    let _ = g.ensure_edge(n(u), n(v));
                }
            }
            2 => {
                if g.contains(n(u)) {
                    g.remove_node(n(u)).expect("live node");
                }
            }
            _ => {
                if g.has_edge(n(u), n(v)) {
                    g.remove_edge(n(u), n(v)).expect("edge exists");
                }
            }
        }
    }
}

proptest! {
    /// Freezing loses nothing and invents nothing: counts, membership,
    /// degrees and full adjacency rows (order included) match the live
    /// graph for every id ever issued.
    #[test]
    fn frozen_csr_mirrors_live_adjacency(
        base in 3usize..80,
        ops in prop::collection::vec(any::<u8>(), 0..180),
    ) {
        let g = churned_graph(base, &ops);
        let csr = FrozenCsr::from_graph(&g);
        prop_assert_eq!(csr.live_count(), g.node_count());
        prop_assert_eq!(csr.nodes_ever(), g.nodes_ever());
        prop_assert_eq!(csr.edge_count(), g.edge_count());
        prop_assert_eq!(csr.iter().collect::<Vec<_>>(), g.iter().collect::<Vec<_>>());
        for i in 0..g.nodes_ever() as u32 {
            let v = n(i);
            prop_assert_eq!(csr.contains(v), g.contains(v));
            prop_assert_eq!(csr.degree(v), g.contains(v).then(|| g.degree(v)));
            prop_assert_eq!(
                csr.neighbors(v).collect::<Vec<_>>(),
                g.neighbors(v).collect::<Vec<_>>(),
                "row {}", v
            );
        }
    }

    /// The dense remap is a monotone bijection live ids <-> `0..live`:
    /// `node(dense(v)) == v`, dense indices strictly ascend over
    /// ascending live ids, and dead ids map to nothing.
    #[test]
    fn dense_remap_is_a_monotone_bijection(
        base in 3usize..80,
        ops in prop::collection::vec(any::<u8>(), 0..180),
    ) {
        let g = churned_graph(base, &ops);
        let csr = FrozenCsr::from_graph(&g);
        let mut last = None;
        for v in g.iter() {
            let d = csr.dense(v).expect("live node has a dense id");
            prop_assert!((d as usize) < csr.live_count());
            prop_assert_eq!(csr.node(d), v);
            prop_assert!(last.is_none_or(|p| p < d), "remap not monotone at {}", v);
            last = Some(d);
        }
        prop_assert_eq!(last, (csr.live_count() > 0).then(|| csr.live_count() as u32 - 1));
        for i in 0..g.nodes_ever() as u32 {
            if !g.contains(n(i)) {
                prop_assert_eq!(csr.dense(n(i)), None);
            }
        }
    }

    /// The dense bidirectional search agrees with the live kernel on
    /// random pairs — equal distances, and **node-identical** concrete
    /// paths (the monotone-remap guarantee the differential suites
    /// rely on).
    #[test]
    fn bidirectional_kernels_match_live_kernels(
        base in 3usize..60,
        ops in prop::collection::vec(any::<u8>(), 0..150),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>()), 1..16),
    ) {
        let g = churned_graph(base, &ops);
        let csr = FrozenCsr::from_graph(&g);
        let total = g.nodes_ever() as u32;
        for &(a, b) in &pairs {
            let (u, v) = (n(u32::from(a) % total), n(u32::from(b) % total));
            prop_assert_eq!(
                csr.bidirectional_distance(u, v),
                traversal::bidirectional_distance(&g, u, v),
                "distance ({}, {})", u, v
            );
            prop_assert_eq!(
                csr.shortest_path(u, v),
                traversal::shortest_path(&g, u, v),
                "path ({}, {})", u, v
            );
        }
    }

    /// Advancing a snapshot across any changes — nodes added, edges
    /// added and removed between old nodes, nodes removed — equals a
    /// fresh freeze, twice in a row. So does advancing it with a clone
    /// changed by a different tape, or with an unrelated graph, both of
    /// which it must freeze from scratch.
    #[test]
    fn advance_after_any_change_equals_a_fresh_freeze(
        base in 3usize..60,
        ops in prop::collection::vec(any::<u8>(), 0..150),
        second in prop::collection::vec(any::<u8>(), 0..60),
        third in prop::collection::vec(any::<u8>(), 0..60),
        forked in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        let mut g = churned_graph(base, &ops);
        let csr = FrozenCsr::from_graph(&g);
        let mut fork = g.clone();
        apply_ops(&mut g, &second);
        let once = csr.advance(&g);
        prop_assert_eq!(&once, &FrozenCsr::from_graph(&g));
        apply_ops(&mut g, &third);
        let twice = once.advance(&g);
        prop_assert_eq!(&twice, &FrozenCsr::from_graph(&g));

        apply_ops(&mut fork, &forked);
        let fresh = FrozenCsr::from_graph(&fork);
        prop_assert_eq!(&once.advance(&fork), &fresh);
        prop_assert_eq!(&twice.advance(&fork), &fresh);
        let unrelated = churned_graph(base, &forked);
        prop_assert_eq!(twice.advance(&unrelated), FrozenCsr::from_graph(&unrelated));
    }

    /// A chain of advances over a graph spanning several 64-row pages,
    /// one short random tape per step (deaths pile up as holes until a
    /// step freezes afresh, and appended ids fill the last page and open
    /// new ones), equals a fresh freeze at every step and answers shortest
    /// paths node-identical to the live kernel's.
    #[test]
    fn chained_advances_across_pages_match_fresh_freezes_and_live_paths(
        base in 64usize..250,
        tapes in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..30), 1..12),
        pairs in prop::collection::vec((any::<u16>(), any::<u16>()), 1..8),
    ) {
        let mut g = generators::cycle(base);
        let mut csr = FrozenCsr::from_graph(&g);
        for (step, tape) in tapes.iter().enumerate() {
            apply_ops(&mut g, tape);
            csr = csr.advance(&g);
            prop_assert_eq!(&csr, &FrozenCsr::from_graph(&g), "step {}", step);
            let total = g.nodes_ever() as u32;
            for &(a, b) in &pairs {
                let (u, v) = (n(u32::from(a) % total), n(u32::from(b) % total));
                prop_assert_eq!(
                    csr.shortest_path(u, v),
                    traversal::shortest_path(&g, u, v),
                    "step {} path ({}, {})", step, u, v
                );
            }
        }
    }
}
