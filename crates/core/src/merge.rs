//! The repair merge: `BT_v` choreography, Strip, and plan execution
//! (paper Algorithms A.4, A.7–A.9).
//!
//! After a deletion shatters the neighbourhood into fragments, the
//! *anchors* — the surviving virtual nodes that were adjacent to the
//! victim's nodes, plus the fresh leaves of the victim's live neighbours —
//! form the balanced binary tree `BT_v` (heap-shaped over the sorted
//! anchor keys). Bottom-up, every `BT_v` node merges its bucket (its
//! fragment's primary-root forest, held by the fragment's smallest
//! anchor) with its children's merged-and-restripped hafts. The merge
//! blueprint itself is the pure [`crate::plan`] computation, shared with
//! the distributed protocol.

use crate::engine::ForgivingGraph;
use crate::plan::{plan_compute_haft, WireTree};
use crate::slot::VKey;

impl ForgivingGraph {
    /// Merges the anchor buckets through the balanced tree `BT_v`;
    /// returns the final reconstruction-tree root (if any tree at all
    /// participated) and the number of bottom-up rounds (`BT_v`'s height).
    pub(crate) fn btv_merge(&mut self, buckets: Vec<Vec<WireTree>>) -> (Option<VKey>, u32) {
        let count = buckets.len();
        if count == 0 {
            return (None, 0);
        }
        let rounds = usize::BITS - 1 - count.leading_zeros();
        let mut buckets: Vec<Option<Vec<WireTree>>> = buckets.into_iter().map(Some).collect();
        let root = self.btv_node_merge(&mut buckets, 0);
        (root, rounds)
    }

    /// Merges `BT_v` node `i`: its own bucket plus its children's merged
    /// and restripped hafts (Algorithm A.4 / `Haft_Merge`). Empty groups
    /// (all-red fragments) dissolve to `None`.
    fn btv_node_merge(
        &mut self,
        buckets: &mut Vec<Option<Vec<WireTree>>>,
        i: usize,
    ) -> Option<VKey> {
        let mut trees = buckets[i].take().expect("each BT_v node merges once");
        for child in [2 * i + 1, 2 * i + 2] {
            if child < buckets.len() {
                if let Some(sub) = self.btv_node_merge(buckets, child) {
                    trees.extend(self.strip_root(sub));
                }
            }
        }
        if trees.is_empty() {
            return None;
        }
        Some(self.compute_haft(trees))
    }

    /// Strip (§4.1.1): frees the spine connectors of the haft rooted at
    /// `root` and returns its complete trees, ready to merge again.
    fn strip_root(&mut self, root: VKey) -> Vec<WireTree> {
        // Walk the right spine collecting parts, then free the spine
        // *before* computing representatives: an emitted tree's free leaf
        // may be exactly the one a spine connector was occupying.
        let mut spine = Vec::new();
        let mut parts = Vec::new();
        let mut cur = root;
        loop {
            if self.forest.node(cur).is_complete() {
                parts.push(cur);
                break;
            }
            let node = self.forest.node(cur);
            let (left, right) = (
                node.left.expect("spine nodes are internal"),
                node.right.expect("spine nodes are internal"),
            );
            self.detach_edge(cur, left);
            self.detach_edge(cur, right);
            spine.push(cur);
            parts.push(left);
            cur = right;
        }
        for key in spine {
            debug_assert!(key.is_helper(), "spine connectors are helpers");
            self.forest.remove_isolated(key);
            self.stats.helpers_freed += 1;
        }
        parts
            .into_iter()
            .map(|root| self.describe_tree(root))
            .collect()
    }

    /// Builds the wire description of a complete tree rooted at `root`.
    pub(crate) fn describe_tree(&mut self, root: VKey) -> WireTree {
        let (rep, cached) = self.forest.free_leaf_of(root);
        if !cached {
            self.stats.rep_fallbacks += 1;
        }
        WireTree {
            root,
            size: self.forest.node(root).leaves,
            height: self.forest.node(root).height,
            rep,
            rep_parent: self.forest.node(rep.real()).parent,
        }
    }

    /// Executes `ComputeHaft` over a non-empty forest: plans with the
    /// shared pure planner, then applies every join to the forest and the
    /// image. Returns the new root.
    fn compute_haft(&mut self, trees: Vec<WireTree>) -> VKey {
        let plan = plan_compute_haft(trees, self.policy);
        for step in &plan.joins {
            let key = self
                .forest
                .create_helper(step.slot, step.left, step.right, step.rep);
            self.image.inc(step.slot.owner, step.left.owner());
            self.image.inc(step.slot.owner, step.right.owner());
            self.stats.helpers_created += 1;
            self.stats.edges_added += 2;
            debug_assert_eq!(key, step.slot.helper());
        }
        plan.output.root
    }
}
