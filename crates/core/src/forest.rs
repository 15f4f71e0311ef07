//! The reconstruction forest: every living virtual node of every
//! Reconstruction Tree (RT).
//!
//! The forest stores the *virtual graph* of paper §3: leaves are the
//! endpoints that survived a deletion, internal nodes are helpers simulated
//! by real processors. The healed network is the homomorphic image of this
//! forest (plus the intact original edges), computed by
//! [`crate::image::ImageGraph`].
//!
//! ## Storage
//!
//! Each owner's virtual nodes live in one sorted map keyed by
//! [`crate::slot::LocalKey`], as each `fg-dist` processor keeps its own;
//! owners are dense ids, so the maps sit in a `Vec` indexed by owner. A
//! lookup is one `Vec` access plus a binary search over that owner's
//! handful of virtual nodes, and iterating owners in order and each map
//! in `LocalKey` order visits keys in exactly the global [`VKey`] order,
//! which keeps every replay bit-identical (DESIGN.md §7). When an
//! owner's last node goes, its map is replaced by an empty one, so a
//! deleted processor gives its allocation back.
//!
//! Structure invariants maintained here (checked by [`Forest::validate`]):
//!
//! * parent/child links are mutually consistent and acyclic;
//! * cached `leaves`/`height` agree with the children;
//! * every internal node satisfies the haft property — its left child is a
//!   complete subtree holding at least half of the leaves (paper §4);
//! * a helper's own leaf `Real(slot)` is a strict descendant of
//!   `Helper(slot)` in the same tree (the representative mechanism's
//!   placement invariant, behind Lemma 3.1);
//! * every tree with `l` leaves has exactly `l − 1` helpers, hence exactly
//!   one *free* leaf (a leaf whose slot simulates no helper).

use crate::slot::{LocalKey, Slot, VKey};
use fg_graph::SortedMap;
use serde::{Deserialize, Serialize};

/// A virtual node: a leaf (real endpoint) or a helper, with the Table 1
/// fields that drive the repair algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VNode {
    /// Parent in the RT (`None` at the root). Table 1: `RTparent`/`hparent`.
    pub parent: Option<VKey>,
    /// Left child (helpers only). Table 1: `hleftchild`.
    pub left: Option<VKey>,
    /// Right child (helpers only). Table 1: `hrightchild`.
    pub right: Option<VKey>,
    /// Leaf descendants (1 for a leaf). Table 1: `childrencount`.
    pub leaves: u32,
    /// Height of the subtree (0 for a leaf). Table 1: `height`.
    pub height: u32,
    /// The free leaf of this subtree as of its last restructuring.
    /// Table 1: `Representative`.
    pub rep: Slot,
}

impl VNode {
    fn new_leaf(slot: Slot) -> Self {
        VNode {
            parent: None,
            left: None,
            right: None,
            leaves: 1,
            height: 0,
            rep: slot,
        }
    }

    /// Whether the subtree rooted here is a complete binary tree.
    pub fn is_complete(&self) -> bool {
        self.leaves == 1u32 << self.height.min(31)
    }
}

/// The forest of all living virtual nodes, keyed by [`VKey`] and stored
/// per owner (see the module docs).
///
/// Mutation goes through narrow primitives so that the engine can mirror
/// every structural edge change into the image graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Forest {
    /// Per-owner nodes in [`LocalKey`] order, indexed by owner id.
    owners: Vec<SortedMap<LocalKey, VNode>>,
    /// Number of living nodes across all owners.
    live: usize,
}

/// Forests are equal when they hold the same living `(key, node)` pairs;
/// how many owner maps were ever allocated is ignored.
impl PartialEq for Forest {
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live && self.iter().eq(other.iter())
    }
}

impl Eq for Forest {}

impl Forest {
    /// An empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of virtual nodes (leaves + helpers).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether `key` names a living virtual node.
    pub fn contains(&self, key: VKey) -> bool {
        self.get(key).is_some()
    }

    /// Borrows a node.
    pub fn get(&self, key: VKey) -> Option<&VNode> {
        self.owners
            .get(key.owner().index())
            .and_then(|nodes| nodes.get(&key.local()))
    }

    /// Node lookup that panics with context on a dangling key — internal
    /// invariants guarantee presence.
    pub(crate) fn node(&self, key: VKey) -> &VNode {
        self.get(key)
            .unwrap_or_else(|| panic!("dangling virtual node {key}"))
    }

    fn node_mut(&mut self, key: VKey) -> &mut VNode {
        self.owners
            .get_mut(key.owner().index())
            .and_then(|nodes| nodes.get_mut(&key.local()))
            .unwrap_or_else(|| panic!("dangling virtual node {key}"))
    }

    /// Iterates over `(key, node)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (VKey, &VNode)> {
        self.owners.iter().enumerate().flat_map(|(i, nodes)| {
            let owner = fg_graph::NodeId::new(i as u32);
            nodes
                .iter()
                .map(move |(&local, node)| (VKey::from_local(owner, local), node))
        })
    }

    /// All virtual nodes owned by one processor, in key order.
    pub fn keys_of_owner(&self, owner: fg_graph::NodeId) -> Vec<VKey> {
        self.owners
            .get(owner.index())
            .map(|nodes| {
                nodes
                    .keys()
                    .map(|&local| VKey::from_local(owner, local))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Stores `key`'s node in its owner's map.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already alive.
    fn alloc(&mut self, key: VKey, node: VNode) {
        let owner = key.owner().index();
        if self.owners.len() <= owner {
            self.owners.resize_with(owner + 1, SortedMap::new);
        }
        let prev = self.owners[owner].insert(key.local(), node);
        assert!(prev.is_none(), "{key} already exists");
        self.live += 1;
    }

    /// Drops `key`'s node; an owner whose last node goes gets a fresh
    /// empty map, releasing the old one's capacity.
    fn free(&mut self, key: VKey) {
        let nodes = &mut self.owners[key.owner().index()];
        let removed = nodes.remove(&key.local());
        assert!(removed.is_some(), "freeing dangling virtual node {key}");
        if nodes.is_empty() {
            *nodes = SortedMap::new();
        }
        self.live -= 1;
    }

    /// Rebuilds a forest from its living `(key, node)` pairs — the
    /// snapshot-restore path. The pairs must describe a structurally
    /// valid forest (links included); callers are expected to run
    /// [`Forest::validate`] on the result before trusting it.
    ///
    /// # Panics
    ///
    /// Panics if a key appears twice.
    pub(crate) fn from_pairs(pairs: impl IntoIterator<Item = (VKey, VNode)>) -> Self {
        let mut forest = Forest::new();
        for (key, node) in pairs {
            forest.alloc(key, node);
        }
        forest
    }

    /// Creates an isolated leaf for `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the leaf already exists.
    pub(crate) fn create_leaf(&mut self, slot: Slot) -> VKey {
        let key = slot.real();
        self.alloc(key, VNode::new_leaf(slot));
        key
    }

    /// Creates a helper for `slot` whose children are the two given roots
    /// (left must be the complete/larger tree, per the haft property).
    /// Returns the helper's key. The representative is set to `rep`.
    ///
    /// # Panics
    ///
    /// Panics if the helper already exists, or if either child is not a
    /// root.
    pub(crate) fn create_helper(&mut self, slot: Slot, left: VKey, right: VKey, rep: Slot) -> VKey {
        let key = slot.helper();
        assert!(
            !self.contains(key),
            "helper {key} already exists (Lemma 3.1 violation)"
        );
        let (ln, rn) = (self.node(left), self.node(right));
        assert!(
            ln.parent.is_none() && rn.parent.is_none(),
            "children must be roots"
        );
        let node = VNode {
            parent: None,
            left: Some(left),
            right: Some(right),
            leaves: ln.leaves + rn.leaves,
            height: 1 + ln.height.max(rn.height),
            rep,
        };
        self.alloc(key, node);
        self.node_mut(left).parent = Some(key);
        self.node_mut(right).parent = Some(key);
        key
    }

    /// Detaches `child` from `parent` (both directions).
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    pub(crate) fn detach_child(&mut self, parent: VKey, child: VKey) {
        let p = self.node_mut(parent);
        if p.left == Some(child) {
            p.left = None;
        } else if p.right == Some(child) {
            p.right = None;
        } else {
            panic!("{child} is not a child of {parent}");
        }
        self.node_mut(child).parent = None;
    }

    /// Removes an isolated node from the forest.
    ///
    /// # Panics
    ///
    /// Panics if the node still has a parent or children.
    pub(crate) fn remove_isolated(&mut self, key: VKey) {
        let n = self.node(key);
        assert!(
            n.parent.is_none() && n.left.is_none() && n.right.is_none(),
            "{key} is still linked"
        );
        self.free(key);
    }

    /// The root of the tree containing `key`.
    pub fn root_of(&self, key: VKey) -> VKey {
        let mut cur = key;
        while let Some(p) = self.node(cur).parent {
            cur = p;
        }
        cur
    }

    /// All tree roots, in key order.
    pub fn roots(&self) -> Vec<VKey> {
        self.iter()
            .filter(|(_, n)| n.parent.is_none())
            .map(|(k, _)| k)
            .collect()
    }

    /// The existing children of `key` (left first).
    pub fn children(&self, key: VKey) -> impl Iterator<Item = VKey> + '_ {
        let n = self.node(key);
        n.left.into_iter().chain(n.right)
    }

    /// The leaves of the subtree rooted at `key`, left-to-right.
    pub fn leaves_below(&self, key: VKey) -> Vec<VKey> {
        let mut out = Vec::new();
        let mut stack = vec![key];
        while let Some(k) = stack.pop() {
            let n = self.node(k);
            match (n.left, n.right) {
                (None, None) => out.push(k),
                (l, r) => {
                    // Push right first so left is processed first.
                    stack.extend(r);
                    stack.extend(l);
                }
            }
        }
        out
    }

    /// The unique *free* leaf of the tree rooted at `key`: the leaf whose
    /// slot simulates no helper. Falls back to a full scan when the cached
    /// representative went stale (see module docs); returns whether the
    /// cache was usable.
    pub(crate) fn free_leaf_of(&self, root: VKey) -> (Slot, bool) {
        let rep = self.node(root).rep;
        if !self.contains(rep.helper()) && self.contains(rep.real()) {
            // Cached representative is free; verify it belongs to this tree.
            if self.root_of(rep.real()) == root {
                return (rep, true);
            }
        }
        for leaf in self.leaves_below(root) {
            if !self.contains(leaf.slot.helper()) {
                return (leaf.slot, false);
            }
        }
        panic!("tree at {root} has no free leaf (representative invariant broken)");
    }

    /// Verifies every structural invariant; returns a description of the
    /// first violation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable violation message.
    pub fn validate(&self) -> Result<(), String> {
        let stored: usize = self.owners.iter().map(SortedMap::len).sum();
        if stored != self.live {
            return Err(format!("live count {} but {stored} stored", self.live));
        }

        for (key, node) in self.iter() {
            // Link consistency.
            if let Some(p) = node.parent {
                let pn = self
                    .get(p)
                    .ok_or_else(|| format!("{key}: dangling parent {p}"))?;
                if pn.left != Some(key) && pn.right != Some(key) {
                    return Err(format!("{key}: parent {p} does not link back"));
                }
            }
            match (node.left, node.right) {
                (None, None) => {
                    if !key.is_real() {
                        return Err(format!("{key}: helper without children"));
                    }
                    if node.leaves != 1 || node.height != 0 {
                        return Err(format!("{key}: leaf with bad cache"));
                    }
                }
                (Some(l), Some(r)) => {
                    if !key.is_helper() {
                        return Err(format!("{key}: leaf with children"));
                    }
                    let ln = self
                        .get(l)
                        .ok_or_else(|| format!("{key}: dangling left {l}"))?;
                    let rn = self
                        .get(r)
                        .ok_or_else(|| format!("{key}: dangling right {r}"))?;
                    if ln.parent != Some(key) || rn.parent != Some(key) {
                        return Err(format!("{key}: child does not link back"));
                    }
                    if node.leaves != ln.leaves + rn.leaves
                        || node.height != 1 + ln.height.max(rn.height)
                    {
                        return Err(format!("{key}: stale leaves/height cache"));
                    }
                    // Haft property.
                    if !ln.is_complete() {
                        return Err(format!("{key}: left child not complete"));
                    }
                    if 2 * ln.leaves < node.leaves {
                        return Err(format!("{key}: left child below half"));
                    }
                }
                _ => return Err(format!("{key}: exactly one child")),
            }
        }
        // Per-tree checks: helper/leaf accounting, helper placement, free leaf.
        for root in self.roots() {
            let mut leaves = 0u32;
            let mut helpers = 0u32;
            let mut stack = vec![root];
            let mut free = Vec::new();
            while let Some(k) = stack.pop() {
                if k.is_real() {
                    leaves += 1;
                    if !self.contains(k.slot.helper()) {
                        free.push(k.slot);
                    }
                } else {
                    helpers += 1;
                    // The helper's own leaf must be a strict descendant.
                    let own_leaf = k.slot.real();
                    if !self.contains(own_leaf) {
                        return Err(format!("{k}: simulator leaf missing"));
                    }
                    if self.root_of(own_leaf) != root {
                        return Err(format!("{k}: simulator leaf in another tree"));
                    }
                }
                stack.extend(self.children(k));
            }
            if helpers + 1 != leaves {
                return Err(format!(
                    "tree {root}: {helpers} helpers for {leaves} leaves"
                ));
            }
            if free.len() != 1 {
                return Err(format!("tree {root}: {} free leaves", free.len()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn s(a: u32, b: u32) -> Slot {
        Slot::new(n(a), n(b))
    }

    /// Builds the RT for a deleted hub 0 with alive neighbours 1..=4:
    /// leaves real(1→0)..real(4→0), helpers assigned like the engine would.
    fn sample_tree() -> (Forest, VKey) {
        let mut f = Forest::new();
        let l1 = f.create_leaf(s(1, 0));
        let l2 = f.create_leaf(s(2, 0));
        let l3 = f.create_leaf(s(3, 0));
        let l4 = f.create_leaf(s(4, 0));
        // Join (1,2) simulated by 1; rep flows to 2.
        let h1 = f.create_helper(s(1, 0), l1, l2, s(2, 0));
        // Join (3,4) simulated by 3; rep flows to 4.
        let h3 = f.create_helper(s(3, 0), l3, l4, s(4, 0));
        // Join the two pairs simulated by 2 (rep of first); rep flows to 4.
        let root = f.create_helper(s(2, 0), h1, h3, s(4, 0));
        (f, root)
    }

    #[test]
    fn sample_tree_is_valid() {
        let (f, root) = sample_tree();
        f.validate().unwrap();
        assert_eq!(f.len(), 7);
        assert_eq!(f.roots(), vec![root]);
        assert_eq!(f.node(root).leaves, 4);
        assert_eq!(f.node(root).height, 2);
        assert!(f.node(root).is_complete());
    }

    #[test]
    fn free_leaf_is_the_representative() {
        let (f, root) = sample_tree();
        let (free, cached) = f.free_leaf_of(root);
        assert_eq!(free, s(4, 0));
        assert!(cached, "representative cache should be warm");
    }

    #[test]
    fn leaves_below_in_left_to_right_order() {
        let (f, root) = sample_tree();
        let leaves = f.leaves_below(root);
        assert_eq!(
            leaves,
            vec![
                s(1, 0).real(),
                s(2, 0).real(),
                s(3, 0).real(),
                s(4, 0).real()
            ]
        );
    }

    #[test]
    fn detach_and_remove() {
        let (mut f, root) = sample_tree();
        let h1 = s(1, 0).helper();
        f.detach_child(root, h1);
        assert_eq!(f.node(h1).parent, None);
        assert_eq!(f.roots().len(), 2);
        // Root now has one child — validation must object.
        assert!(f.validate().is_err());
    }

    #[test]
    fn keys_of_owner_scans_range() {
        let (f, _) = sample_tree();
        let keys = f.keys_of_owner(n(1));
        assert_eq!(keys, vec![s(1, 0).real(), s(1, 0).helper()]);
        assert_eq!(f.keys_of_owner(n(4)), vec![s(4, 0).real()]);
        assert_eq!(f.keys_of_owner(n(9)), Vec::<VKey>::new());
    }

    #[test]
    fn validate_catches_double_free_leaf() {
        let mut f = Forest::new();
        let l1 = f.create_leaf(s(1, 0));
        let l2 = f.create_leaf(s(2, 0));
        // Helper simulated by an unrelated slot owner (5→0): its own leaf
        // is not in the tree.
        let _h = f.create_helper(s(5, 0), l1, l2, s(2, 0));
        let err = f.validate().unwrap_err();
        assert!(err.contains("simulator leaf missing"), "{err}");
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_helper_panics() {
        let mut f = Forest::new();
        let l1 = f.create_leaf(s(1, 0));
        let l2 = f.create_leaf(s(2, 0));
        let l3 = f.create_leaf(s(1, 5));
        let h = f.create_helper(s(1, 0), l1, l2, s(2, 0));
        let _ = f.create_helper(s(1, 0), h, l3, s(2, 0));
    }

    #[test]
    fn singleton_leaf_is_valid_tree() {
        let mut f = Forest::new();
        let l = f.create_leaf(s(1, 0));
        f.validate().unwrap();
        assert_eq!(f.root_of(l), l);
        assert_eq!(f.free_leaf_of(l).0, s(1, 0));
    }

    #[test]
    fn equality_ignores_tombstone_history() {
        // Same living content, different allocation histories.
        let mut a = Forest::new();
        a.create_leaf(s(1, 0));
        let mut b = Forest::new();
        b.create_leaf(s(2, 0));
        b.create_leaf(s(1, 0));
        b.remove_isolated(s(2, 0).real());
        assert_eq!(a, b);
    }
}
