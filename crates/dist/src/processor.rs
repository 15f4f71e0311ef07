//! The per-node actor: local protocol state and message handlers.
//!
//! A processor owns exactly the virtual nodes whose slots it simulates
//! (`key.slot.owner == self.id`) plus per-repair scratch: taint marks,
//! fragment-seed collectors, and `BT_v` anchor duties. Everything a
//! handler needs beyond that arrives either in the message or in the
//! repair's [`Shared`] context (the victim's will — data the victim
//! replicated to its image neighbours while alive).

use fg_core::plan::{plan_compute_haft, WireTree};
use fg_core::{ImageGraph, PlacementPolicy, Slot, VKey};
use fg_graph::{NodeId, SortedMap, SortedSet};

use crate::message::{Message, Payload, Target};

/// Structural accounting for one repair, filled in as the protocol runs —
/// the distributed counterpart of the quantities the sequential engine
/// reads off its own stats. The simulator aggregates these globally (it
/// can see every actor); a deployment would fold them into the repair's
/// existing message flow.
#[derive(Debug, Default)]
pub(crate) struct RepairTally {
    pub fragments: usize,
    pub trees_collected: usize,
    pub buckets: usize,
    pub edges_added: u64,
    pub edges_dropped: u64,
    pub helpers_created: u64,
    pub helpers_freed: u64,
    pub leaves_created: u64,
    pub leaves_removed: u64,
}

/// One virtual node's local record — the distributed counterpart of the
/// reference engine's forest entry (paper Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VState {
    pub parent: Option<VKey>,
    pub left: Option<VKey>,
    pub right: Option<VKey>,
    pub leaves: u32,
    pub height: u32,
    pub rep: Slot,
}

impl VState {
    fn leaf(slot: Slot) -> Self {
        VState {
            parent: None,
            left: None,
            right: None,
            leaves: 1,
            height: 0,
            rep: slot,
        }
    }

    fn is_complete(&self) -> bool {
        self.leaves == 1u32 << self.height.min(31)
    }
}

/// The victim's links for one of its virtual nodes, as recorded in the will.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VLinks {
    pub parent: Option<VKey>,
    pub left: Option<VKey>,
    pub right: Option<VKey>,
}

/// Repair-wide read-only context: the victim's will plus derived data every
/// image neighbour computes identically (the paper's point — `BT_v` and the
/// merge blueprint are pure functions of exchanged data).
#[derive(Debug)]
pub(crate) struct Shared {
    pub victim: NodeId,
    /// The victim's live `G'` neighbours (original image edges released).
    pub alive_nbrs: SortedSet<NodeId>,
    /// The victim's virtual nodes and their links.
    pub removed: SortedMap<VKey, VLinks>,
    /// The sorted `BT_v` positions: surviving virtual neighbours of the
    /// victim's nodes plus the fresh leaves.
    pub anchors: Vec<VKey>,
    pub anchor_set: SortedSet<VKey>,
    pub policy: PlacementPolicy,
}

impl Shared {
    fn is_removed(&self, key: VKey) -> bool {
        self.removed.contains_key(&key)
    }
}

/// The environment every handler of one repair runs in: the outbox of
/// the round in progress, the globally materialized image, and the
/// repair's structural tally and `BT_v` root slot.
///
/// Handlers run one at a time in canonical order (DESIGN.md §9), so they
/// apply image edge units directly, in exactly the order the protocol
/// produces them.
pub(crate) struct Ctx<'a> {
    pub outbox: Vec<Message>,
    pub image: &'a mut ImageGraph,
    pub tally: RepairTally,
    /// The `BT_v` root position's output: the repaired reconstruction tree.
    pub btv_root: Option<WireTree>,
}

impl Ctx<'_> {
    /// Adds one image edge unit.
    fn edge_add(&mut self, u: NodeId, v: NodeId) {
        self.image.inc(u, v);
        self.tally.edges_added += 1;
    }

    /// Drops one image edge unit.
    pub(crate) fn edge_drop(&mut self, u: NodeId, v: NodeId) {
        self.image.dec(u, v);
        self.tally.edges_dropped += 1;
    }
}

/// A fragment collector at the fragment's seed.
#[derive(Debug, Default)]
pub(crate) struct SeedState {
    pub trees: Vec<WireTree>,
    pub anchors: SortedSet<VKey>,
}

/// One `BT_v` position's merge state, held by the anchor's owner.
#[derive(Debug)]
pub(crate) struct AnchorDuty {
    pub pos: usize,
    pub bucket: Vec<WireTree>,
    pub waiting_children: usize,
    pub pending_strips: usize,
    pub parts: Vec<WireTree>,
    pub merged: bool,
}

/// A per-node actor.
#[derive(Debug, Default)]
pub(crate) struct Processor {
    pub id: NodeId,
    pub vnodes: SortedMap<VKey, VState>,
    // --- per-repair scratch: created only by `receive_will` and
    // `handle`, so only at processors the round loop has touched ---
    tainted: SortedSet<VKey>,
    pub seeds: SortedMap<VKey, SeedState>,
    pub duties: SortedMap<VKey, AnchorDuty>,
    /// Outgoing-message counter for canonical ordering; monotone within a
    /// repair, reset at quiescence.
    next_seq: u32,
}

impl Processor {
    pub(crate) fn new(id: NodeId) -> Self {
        Processor {
            id,
            ..Processor::default()
        }
    }

    /// Clears the per-repair scratch once the deletion has quiesced.
    pub(crate) fn end_repair(&mut self) {
        self.tainted.clear();
        self.seeds.clear();
        self.duties.clear();
        self.next_seq = 0;
    }

    /// Whether this processor holds no repair scratch.
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.tainted.is_empty()
            && self.seeds.is_empty()
            && self.duties.is_empty()
            && self.next_seq == 0
    }

    /// Reads out the victim's will — its virtual nodes' links, in key
    /// order — and clears its virtual nodes (the victim vanishes).
    pub(crate) fn take_will(&mut self) -> SortedMap<VKey, VLinks> {
        let will = self
            .vnodes
            .iter()
            .map(|(k, n)| {
                (
                    *k,
                    VLinks {
                        parent: n.parent,
                        left: n.left,
                        right: n.right,
                    },
                )
            })
            .collect();
        self.vnodes.clear();
        will
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, payload: Payload) {
        let seq = self.next_seq;
        self.next_seq += 1;
        ctx.outbox.push(Message {
            src: self.id,
            dst,
            seq,
            payload,
        });
    }

    fn vnode(&self, key: VKey) -> &VState {
        self.vnodes
            .get(&key)
            .unwrap_or_else(|| panic!("{}: dangling virtual node {key}", self.id))
    }

    fn vnode_mut(&mut self, key: VKey) -> &mut VState {
        let id = self.id;
        self.vnodes
            .get_mut(&key)
            .unwrap_or_else(|| panic!("{id}: dangling virtual node {key}"))
    }

    // ------------------------------------------------------------------
    // Phase 0 — failure detection: the will arrives.
    // ------------------------------------------------------------------

    /// Processes the victim's will: releases the original edge, plants the
    /// fresh leaf, detaches from the victim's virtual nodes, marks local
    /// taint, registers walk seeds, and takes up `BT_v` anchor duties.
    pub(crate) fn receive_will(&mut self, shared: &Shared, ctx: &mut Ctx<'_>) {
        // Original edge (self, victim): release it and plant the fresh leaf
        // that will represent this lost edge in the reconstruction tree.
        if shared.alive_nbrs.contains(&self.id) {
            ctx.edge_drop(self.id, shared.victim);
            let slot = Slot::new(self.id, shared.victim);
            let prev = self.vnodes.insert(slot.real(), VState::leaf(slot));
            assert!(prev.is_none(), "fresh leaf {} already exists", slot.real());
            ctx.tally.leaves_created += 1;
            self.seeds
                .get_or_insert_with(slot.real(), SeedState::default);
        }

        // Detach from the victim's virtual nodes.
        let mine: Vec<VKey> = self.vnodes.keys().copied().collect();
        for key in mine {
            let links = self.vnode(key).clone();
            let parent_removed = links.parent.is_some_and(|p| shared.is_removed(p));
            let mut removed_children = 0usize;
            if links.left.is_some_and(|c| shared.is_removed(c)) {
                self.vnode_mut(key).left = None;
                removed_children += 1;
            }
            if links.right.is_some_and(|c| shared.is_removed(c)) {
                self.vnode_mut(key).right = None;
                removed_children += 1;
            }
            for _ in 0..removed_children {
                ctx.edge_drop(self.id, shared.victim);
            }
            if parent_removed {
                self.vnode_mut(key).parent = None;
                ctx.edge_drop(self.id, shared.victim);
            }
            if removed_children > 0 {
                // This node is an ancestor of a removed node: red.
                self.tainted.insert(key);
            }
            if parent_removed {
                // A child of a removed node heads its own fragment.
                self.seeds.get_or_insert_with(key, SeedState::default);
            } else if removed_children > 0 {
                match links.parent {
                    // A tainted root heads the affected tree's fragment.
                    None => {
                        self.seeds.get_or_insert_with(key, SeedState::default);
                    }
                    Some(pp) => self.send(ctx, pp.owner(), Payload::TaintUp { key: pp }),
                }
            }
        }

        // Anchor duties for the `BT_v` positions this processor owns.
        let len = shared.anchors.len();
        for (pos, &anchor) in shared.anchors.iter().enumerate() {
            if anchor.owner() == self.id {
                let waiting_children =
                    usize::from(2 * pos + 1 < len) + usize::from(2 * pos + 2 < len);
                self.duties.insert(
                    anchor,
                    AnchorDuty {
                        pos,
                        bucket: Vec::new(),
                        waiting_children,
                        pending_strips: 0,
                        parts: Vec::new(),
                        merged: false,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 2 — the shatter walk.
    // ------------------------------------------------------------------

    /// Kicks off the walk for every fragment this processor seeds.
    pub(crate) fn start_walks(&mut self, shared: &Shared, ctx: &mut Ctx<'_>) {
        let seeds: Vec<VKey> = self.seeds.keys().copied().collect();
        for seed in seeds {
            self.walk(seed, seed, shared, ctx);
        }
    }

    /// One shatter step at `key` inside fragment `frag` (the distributed
    /// counterpart of the engine's `gather`): red nodes (tainted ancestors
    /// and stale spine connectors) free themselves and pass the walk to
    /// their children; clean complete subtrees survive wholesale as the
    /// fragment's primary roots.
    fn walk(&mut self, key: VKey, frag: VKey, shared: &Shared, ctx: &mut Ctx<'_>) {
        if shared.anchor_set.contains(&key) {
            self.send(ctx, frag.owner(), Payload::AnchorFrag { anchor: key, frag });
        }
        let node = self.vnode(key).clone();
        if self.tainted.contains(&key) || !node.is_complete() {
            debug_assert!(key.is_helper(), "leaves are complete and never tainted");
            for child in node.left.into_iter().chain(node.right) {
                ctx.edge_drop(self.id, child.owner());
                self.send(ctx, child.owner(), Payload::Detach { key: child, frag });
            }
            self.vnodes.remove(&key);
            ctx.tally.helpers_freed += 1;
        } else {
            self.send(
                ctx,
                node.rep.owner,
                Payload::Describe {
                    target: Target::Fragment(frag),
                    root: key,
                    size: node.leaves,
                    height: node.height,
                    rep: node.rep,
                    last: false,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Phase 3 — bucket routing.
    // ------------------------------------------------------------------

    /// Routes every non-empty fragment's collected trees to the fragment's
    /// smallest anchor (the engine's bucket-placement rule).
    pub(crate) fn route_buckets(&mut self, ctx: &mut Ctx<'_>) {
        let seeds = std::mem::take(&mut self.seeds);
        for (seed, state) in seeds {
            if state.trees.is_empty() {
                continue;
            }
            ctx.tally.fragments += 1;
            ctx.tally.trees_collected += state.trees.len();
            let anchor = *state
                .anchors
                .iter()
                .next()
                .unwrap_or_else(|| panic!("non-empty fragment {seed} has no anchors"));
            for tree in state.trees {
                self.send(ctx, anchor.owner(), Payload::BucketTree { anchor, tree });
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 4 — the bottom-up BT_v merge.
    // ------------------------------------------------------------------

    /// Fires every `BT_v` leaf position this processor owns.
    pub(crate) fn start_merges(&mut self, shared: &Shared, ctx: &mut Ctx<'_>) {
        let keys: Vec<VKey> = self.duties.keys().copied().collect();
        for anchor in keys {
            self.try_merge(anchor, shared, ctx);
        }
    }

    /// Runs this position's merge once its bucket, child hafts and strip
    /// parts are all in: plan `ComputeHaft` locally (the shared pure
    /// blueprint), execute the joins as messages, and report the output to
    /// the `BT_v` parent.
    fn try_merge(&mut self, anchor: VKey, shared: &Shared, ctx: &mut Ctx<'_>) {
        let duty = self.duties.get_mut(&anchor).expect("anchor duty exists");
        if duty.merged || duty.waiting_children > 0 || duty.pending_strips > 0 {
            return;
        }
        duty.merged = true;
        if !duty.bucket.is_empty() {
            ctx.tally.buckets += 1;
        }
        let mut trees = std::mem::take(&mut duty.bucket);
        trees.append(&mut duty.parts);
        let pos = duty.pos;
        let output = if trees.is_empty() {
            None
        } else {
            let plan = plan_compute_haft(trees, shared.policy);
            for step in &plan.joins {
                self.send(ctx, step.slot.owner, Payload::MakeHelper { step: *step });
            }
            Some(plan.output)
        };
        if pos == 0 {
            ctx.btv_root = output;
        } else {
            let parent = shared.anchors[(pos - 1) / 2];
            self.send(
                ctx,
                parent.owner(),
                Payload::HaftUp {
                    anchor: parent,
                    haft: output,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // The message dispatcher.
    // ------------------------------------------------------------------

    pub(crate) fn handle(&mut self, payload: Payload, shared: &Shared, ctx: &mut Ctx<'_>) {
        match payload {
            Payload::TaintUp { key } => {
                if !self.tainted.insert(key) {
                    return;
                }
                match self.vnode(key).parent {
                    None => {
                        self.seeds.get_or_insert_with(key, SeedState::default);
                    }
                    Some(pp) => self.send(ctx, pp.owner(), Payload::TaintUp { key: pp }),
                }
            }
            Payload::Detach { key, frag } => {
                self.vnode_mut(key).parent = None;
                self.walk(key, frag, shared, ctx);
            }
            Payload::AnchorFrag { anchor, frag } => {
                self.seeds
                    .get_mut(&frag)
                    .unwrap_or_else(|| panic!("{frag} is not a seed here"))
                    .anchors
                    .insert(anchor);
            }
            Payload::Describe {
                target,
                root,
                size,
                height,
                rep,
                last,
            } => {
                // Only the representative's owner knows its current parent;
                // fill it in and forward the completed description.
                let rep_parent = self.vnode(rep.real()).parent;
                let tree = WireTree {
                    root,
                    size,
                    height,
                    rep,
                    rep_parent,
                };
                self.send(
                    ctx,
                    target.owner(),
                    Payload::CollectTree { target, tree, last },
                );
            }
            Payload::CollectTree { target, tree, last } => match target {
                Target::Fragment(frag) => {
                    self.seeds
                        .get_mut(&frag)
                        .unwrap_or_else(|| panic!("{frag} is not a seed here"))
                        .trees
                        .push(tree);
                }
                Target::Merge(anchor) => {
                    let duty = self.duties.get_mut(&anchor).expect("merge duty exists");
                    duty.parts.push(tree);
                    if last {
                        duty.pending_strips -= 1;
                        self.try_merge(anchor, shared, ctx);
                    }
                }
            },
            Payload::BucketTree { anchor, tree } => {
                self.duties
                    .get_mut(&anchor)
                    .expect("bucket target owns the duty")
                    .bucket
                    .push(tree);
            }
            Payload::MakeHelper { step } => {
                let key = step.slot.helper();
                let prev = self.vnodes.insert(
                    key,
                    VState {
                        parent: None,
                        left: Some(step.left),
                        right: Some(step.right),
                        leaves: step.size,
                        height: step.height,
                        rep: step.rep,
                    },
                );
                assert!(prev.is_none(), "helper {key} already exists (Lemma 3.1)");
                ctx.tally.helpers_created += 1;
                ctx.edge_add(self.id, step.left.owner());
                ctx.edge_add(self.id, step.right.owner());
                self.send(
                    ctx,
                    step.left.owner(),
                    Payload::SetParent {
                        key: step.left,
                        parent: key,
                    },
                );
                self.send(
                    ctx,
                    step.right.owner(),
                    Payload::SetParent {
                        key: step.right,
                        parent: key,
                    },
                );
            }
            Payload::SetParent { key, parent } => {
                self.vnode_mut(key).parent = Some(parent);
            }
            Payload::Strip { root, collector } => {
                self.vnode_mut(root).parent = None;
                let node = self.vnode(root).clone();
                if node.is_complete() {
                    // The whole haft is one complete tree: the last part.
                    self.send(
                        ctx,
                        node.rep.owner,
                        Payload::Describe {
                            target: Target::Merge(collector),
                            root,
                            size: node.leaves,
                            height: node.height,
                            rep: node.rep,
                            last: true,
                        },
                    );
                } else {
                    // Spine connector: emit the (complete) left part, walk on
                    // down the right spine, and free this node.
                    ctx.tally.helpers_freed += 1;
                    let left = node.left.expect("spine nodes are internal");
                    let right = node.right.expect("spine nodes are internal");
                    ctx.edge_drop(self.id, left.owner());
                    ctx.edge_drop(self.id, right.owner());
                    self.send(
                        ctx,
                        left.owner(),
                        Payload::StripDetach {
                            key: left,
                            collector,
                        },
                    );
                    self.send(
                        ctx,
                        right.owner(),
                        Payload::Strip {
                            root: right,
                            collector,
                        },
                    );
                    self.vnodes.remove(&root);
                }
            }
            Payload::StripDetach { key, collector } => {
                self.vnode_mut(key).parent = None;
                let node = self.vnode(key).clone();
                debug_assert!(node.is_complete(), "strip parts are complete");
                self.send(
                    ctx,
                    node.rep.owner,
                    Payload::Describe {
                        target: Target::Merge(collector),
                        root: key,
                        size: node.leaves,
                        height: node.height,
                        rep: node.rep,
                        last: false,
                    },
                );
            }
            Payload::HaftUp { anchor, haft } => {
                let duty = self.duties.get_mut(&anchor).expect("parent duty exists");
                duty.waiting_children -= 1;
                if let Some(wt) = haft {
                    duty.pending_strips += 1;
                    self.send(
                        ctx,
                        wt.root.owner(),
                        Payload::Strip {
                            root: wt.root,
                            collector: anchor,
                        },
                    );
                }
                self.try_merge(anchor, shared, ctx);
            }
        }
    }
}
