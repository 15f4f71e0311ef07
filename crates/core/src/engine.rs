//! The Forgiving Graph engine: insertions, deletions and self-healing
//! repair (paper §3, §4.2, Appendix A).
//!
//! This is the sequential *reference* implementation: it applies the whole
//! repair for a deletion atomically, using the same shatter → strip →
//! bottom-up-merge choreography that the processors of `fg-dist` execute
//! with messages. Both implementations produce identical state, which the
//! integration suite asserts.

use crate::api::{InsertReport, RepairReport};
use crate::error::EngineError;
use crate::forest::Forest;
use crate::image::ImageGraph;
use crate::plan::WireTree;
use crate::slot::{Slot, VKey};
use crate::stats::EngineStats;
use fg_graph::{Graph, NodeId, SortedMap, SortedSet};
use serde::{Deserialize, Serialize};

/// How the merge picks the processor that simulates a fresh helper node.
///
/// See DESIGN.md §2: the conference paper's Algorithm A.9 ("PaperExact")
/// can place a helper far from its simulator's leaf, which costs a fourth
/// distinct image neighbour per `G'`-edge in adversarial merge cascades.
/// The "Adjacent" refinement prefers a representative whose own leaf is a
/// direct child of one of the two roots being joined, collapsing one
/// helper edge under the homomorphism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Algorithm A.9 verbatim: the bigger tree's representative simulates.
    PaperExact,
    /// Prefer a root-adjacent representative; fall back to the paper rule.
    #[default]
    Adjacent,
}

/// Cumulative per-phase wall-clock seconds, filled in while profiling is
/// on (see [`ForgivingGraph::enable_profiling`]).
///
/// The write path has four phases per deletion — mirroring §4.2's repair
/// choreography — plus one for insertions:
///
/// * `gather` — victim bookkeeping: surviving neighbours, original-edge
///   release, the removed key set, anchors and tainted ancestors;
/// * `strip` — shattering affected trees into complete-subtree fragments
///   and minting the fresh singleton leaves;
/// * `plan` — bucketing fragments at their BT_v anchors and detaching the
///   victim from the image;
/// * `merge` — the bottom-up BT_v merge;
/// * `insert` — whole insertions (no healing, so one phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Seconds spent applying insertions.
    pub insert: f64,
    /// Seconds in the gather phase of deletions.
    pub gather: f64,
    /// Seconds in the strip phase of deletions.
    pub strip: f64,
    /// Seconds in the plan phase of deletions.
    pub plan: f64,
    /// Seconds in the merge phase of deletions.
    pub merge: f64,
}

impl PhaseTimes {
    /// Total profiled seconds across all phases.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.insert + self.gather + self.strip + self.plan + self.merge
    }
}

/// Phase selector for [`ForgivingGraph::lap`].
#[derive(Clone, Copy)]
enum Phase {
    Insert,
    Gather,
    Strip,
    Plan,
    Merge,
}

/// A self-healing peer-to-peer network implementing the Forgiving Graph.
///
/// Maintains three coupled structures:
///
/// * `ghost` — `G'`, the insert-only graph (every node and adversarial
///   edge ever created; deletions leave it untouched);
/// * `forest` — the virtual reconstruction trees over edge slots;
/// * `image` — `G`, the healed network actually present: surviving
///   original edges plus the homomorphic image of the forest.
///
/// # Examples
///
/// ```
/// use fg_core::ForgivingGraph;
/// use fg_graph::generators;
///
/// let mut fg = ForgivingGraph::from_graph(&generators::star(8))?;
/// let hub = fg_graph::NodeId::new(0);
/// let report = fg.delete(hub)?;
/// assert_eq!(report.ghost_degree, 7);
/// assert!(fg_graph::traversal::is_connected(fg.image()));
/// fg.check_invariants()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForgivingGraph {
    pub(crate) ghost: Graph,
    pub(crate) alive: Vec<bool>,
    pub(crate) forest: Forest,
    pub(crate) image: ImageGraph,
    pub(crate) policy: PlacementPolicy,
    pub(crate) stats: EngineStats,
    /// Per-phase wall-time accumulator; `None` (the default) keeps the
    /// hot path free of clock reads.
    pub(crate) profile: Option<PhaseTimes>,
}

/// Logical-state equality: two engines are equal when they healed to the
/// same network — ghost, alive set, forest, image, policy and counters.
/// Telemetry (`profile`) is excluded.
impl PartialEq for ForgivingGraph {
    fn eq(&self, other: &Self) -> bool {
        self.ghost == other.ghost
            && self.alive == other.alive
            && self.forest == other.forest
            && self.image == other.image
            && self.policy == other.policy
            && self.stats == other.stats
    }
}

impl ForgivingGraph {
    /// An empty network with the default placement policy.
    pub fn new() -> Self {
        Self::with_policy(PlacementPolicy::default())
    }

    /// An empty network with an explicit placement policy.
    pub fn with_policy(policy: PlacementPolicy) -> Self {
        ForgivingGraph {
            ghost: Graph::new(),
            alive: Vec::new(),
            forest: Forest::new(),
            image: ImageGraph::new(),
            policy,
            stats: EngineStats::default(),
            profile: None,
        }
    }

    /// Starts accumulating per-phase wall times ([`PhaseTimes`]) from
    /// zero. Off by default so unprofiled runs never read the clock.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(PhaseTimes::default());
    }

    /// Cumulative per-phase wall times since
    /// [`ForgivingGraph::enable_profiling`], or `None` when profiling is
    /// off.
    pub fn phase_times(&self) -> Option<PhaseTimes> {
        self.profile
    }

    /// Credits the time since `*clock` to `phase` and restarts the clock.
    /// A `None` clock (profiling off) costs one branch.
    fn lap(&mut self, clock: &mut Option<std::time::Instant>, phase: Phase) {
        if let (Some(times), Some(t)) = (self.profile.as_mut(), clock.as_mut()) {
            // fg-lint: allow(determinism): opt-in profiling clock; elapsed times feed PhaseTimes only, never a digest
            let now = std::time::Instant::now();
            let secs = now.duration_since(*t).as_secs_f64();
            *t = now;
            match phase {
                Phase::Insert => times.insert += secs,
                Phase::Gather => times.gather += secs,
                Phase::Strip => times.strip += secs,
                Phase::Plan => times.plan += secs,
                Phase::Merge => times.merge += secs,
            }
        }
    }

    /// Adopts an existing network as `G_0`.
    ///
    /// There is no preprocessing phase — this is the paper's third
    /// improvement over the Forgiving Tree, which needed `O(n log n)`
    /// setup messages. Adoption is pure state initialisation.
    ///
    /// # Panics
    ///
    /// Panics if `g` contains removed (tombstoned) nodes; start from a
    /// fresh graph.
    pub fn from_graph(g: &Graph) -> Result<Self, EngineError> {
        Self::from_graph_with_policy(g, PlacementPolicy::default())
    }

    /// [`ForgivingGraph::from_graph`] with an explicit placement policy.
    pub fn from_graph_with_policy(g: &Graph, policy: PlacementPolicy) -> Result<Self, EngineError> {
        assert_eq!(
            g.node_count(),
            g.nodes_ever(),
            "G0 must not contain tombstoned nodes"
        );
        let mut fg = Self::with_policy(policy);
        for _ in 0..g.node_count() {
            fg.ghost.add_node();
            fg.image.add_node();
            fg.alive.push(true);
        }
        for e in g.edges() {
            fg.ghost
                .add_edge(e.lo(), e.hi())
                .expect("copying a simple graph");
            fg.image.inc(e.lo(), e.hi());
        }
        Ok(fg)
    }

    /// The insert-only graph `G'` (deleted nodes keep their edges here).
    pub fn ghost(&self) -> &Graph {
        &self.ghost
    }

    /// The healed network `G` as a simple graph over live processors.
    pub fn image(&self) -> &Graph {
        self.image.simple()
    }

    /// Edge multiplicity in the image multigraph (original + virtual).
    pub fn multiplicity(&self, u: NodeId, v: NodeId) -> u32 {
        self.image.multiplicity(u, v)
    }

    /// Multigraph degree of `v` in the image.
    pub fn multi_degree(&self, v: NodeId) -> u32 {
        self.image.multi_degree(v)
    }

    /// Whether `v` is currently alive.
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.alive.get(v.index()).copied().unwrap_or(false)
    }

    /// Live node count.
    pub fn alive_count(&self) -> usize {
        self.image.simple().node_count()
    }

    /// Total nodes ever seen — the paper's `n`.
    pub fn nodes_ever(&self) -> usize {
        self.ghost.nodes_ever()
    }

    /// The stretch bound the paper guarantees right now: `⌈log₂ n⌉`
    /// (at least 1), with `n` the number of nodes ever seen.
    pub fn stretch_bound(&self) -> u32 {
        let n = self.nodes_ever().max(2);
        (usize::BITS - (n - 1).leading_zeros()).max(1)
    }

    /// Cumulative engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The active placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Number of live virtual nodes (leaves + helpers).
    pub fn forest_len(&self) -> usize {
        self.forest.len()
    }

    /// Read-only access to the reconstruction forest.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// `(leaf count, depth)` of every reconstruction tree, in key order.
    pub fn rt_shapes(&self) -> Vec<(u32, u32)> {
        self.forest
            .roots()
            .into_iter()
            .map(|r| {
                let n = self.forest.node(r);
                (n.leaves, n.height)
            })
            .collect()
    }

    /// Adversarially inserts a node connected to `neighbors`.
    ///
    /// Insertion needs no healing (paper §3): the node and its neighbours
    /// just record the new edges.
    ///
    /// # Errors
    ///
    /// * [`EngineError::EmptyNeighbourhood`] for an empty list,
    /// * [`EngineError::DuplicateNeighbour`] for repeats,
    /// * [`EngineError::NotAlive`] if a neighbour is dead or unknown.
    pub fn insert(&mut self, neighbors: &[NodeId]) -> Result<NodeId, EngineError> {
        self.insert_report(neighbors).map(|report| report.node)
    }

    /// [`ForgivingGraph::insert`], reporting what was attached (the
    /// [`crate::SelfHealer::insert`] outcome).
    pub(crate) fn insert_report(
        &mut self,
        neighbors: &[NodeId],
    ) -> Result<InsertReport, EngineError> {
        if neighbors.is_empty() {
            return Err(EngineError::EmptyNeighbourhood);
        }
        // fg-lint: allow(determinism): opt-in profiling clock; elapsed times feed PhaseTimes only, never a digest
        let mut clock = self.profile.is_some().then(std::time::Instant::now);
        let mut seen = SortedSet::new();
        for &x in neighbors {
            if !seen.insert(x) {
                return Err(EngineError::DuplicateNeighbour(x));
            }
            if !self.is_alive(x) {
                return Err(EngineError::NotAlive(x));
            }
        }
        let v = self.ghost.add_node();
        let iv = self.image.add_node();
        debug_assert_eq!(v, iv, "ghost and image ids must stay aligned");
        self.alive.push(true);
        for &x in neighbors {
            self.ghost.add_edge(v, x).expect("fresh node, fresh edges");
            self.image.inc(v, x);
        }
        self.stats.inserts += 1;
        self.stats.edges_added += neighbors.len() as u64;
        self.lap(&mut clock, Phase::Insert);
        Ok(InsertReport {
            node: v,
            neighbors: neighbors.len(),
            edges_added: neighbors.len() as u64,
        })
    }

    /// Adversarially deletes `v` and runs the self-healing repair.
    ///
    /// The two phases of §4.2 run atomically: (1) the victim's virtual
    /// nodes are removed, shattering the affected reconstruction trees
    /// into fragments that strip down to complete subtrees; (2) the
    /// fragments form the balanced tree `BT_v` and merge bottom-up into a
    /// single new reconstruction tree whose leaves are every surviving
    /// endpoint.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotAlive`] if `v` is unknown or already deleted.
    pub fn delete(&mut self, v: NodeId) -> Result<RepairReport, EngineError> {
        if !self.is_alive(v) {
            return Err(EngineError::NotAlive(v));
        }
        // fg-lint: allow(determinism): opt-in profiling clock; elapsed times feed PhaseTimes only, never a digest
        let mut clock = self.profile.is_some().then(std::time::Instant::now);
        let before = self.stats;
        let nodes_ever = self.nodes_ever();
        let ghost_degree = self.ghost.degree(v);
        let alive_nbrs: Vec<NodeId> = self
            .ghost
            .neighbors(v)
            .filter(|&x| self.is_alive(x))
            .collect();

        // Release the intact original edges (v, x).
        for &x in &alive_nbrs {
            self.image.dec(v, x);
        }
        self.stats.edges_dropped += alive_nbrs.len() as u64;

        // The victim's virtual nodes, and the trees they live in.
        let removed: SortedSet<VKey> = self.forest.keys_of_owner(v).into_iter().collect();
        let mut affected_roots = SortedSet::new();
        for &k in &removed {
            affected_roots.insert(self.forest.root_of(k));
        }
        self.alive[v.index()] = false;

        // The anchors of BT_v (Algorithm A.3's Nset): every surviving
        // virtual node adjacent to one of the victim's nodes. Collected
        // before any detaching.
        let mut anchors: SortedSet<VKey> = SortedSet::new();
        for &k in &removed {
            let node = self.forest.node(k);
            for adj in node
                .parent
                .iter()
                .chain(node.left.iter())
                .chain(node.right.iter())
            {
                if !removed.contains(adj) {
                    anchors.insert(*adj);
                }
            }
        }

        // Ancestors of removed nodes can no longer head complete subtrees.
        let mut tainted = SortedSet::new();
        for &k in &removed {
            let mut cur = k;
            while let Some(p) = self.forest.node(cur).parent {
                if removed.contains(&p) || !tainted.insert(p) {
                    break;
                }
                cur = p;
            }
        }
        self.lap(&mut clock, Phase::Gather);

        // Phase 1: shatter every affected tree into fragments of complete
        // subtrees, freeing red nodes and the victim's nodes. Track which
        // fragment each anchor landed in.
        let mut fragments: Vec<Vec<WireTree>> = Vec::new();
        let mut anchor_frag: SortedMap<VKey, usize> = SortedMap::new();
        for root in affected_roots {
            fragments.push(Vec::new());
            let frag = fragments.len() - 1;
            self.gather(
                root,
                frag,
                &removed,
                &tainted,
                &anchors,
                &mut fragments,
                &mut anchor_frag,
            );
        }

        // One fresh singleton leaf per surviving neighbour; each is its
        // own fragment and its own anchor.
        for &x in &alive_nbrs {
            let slot = Slot::new(x, v);
            let key = self.forest.create_leaf(slot);
            self.stats.leaves_created += 1;
            fragments.push(vec![WireTree::leaf(slot)]);
            anchors.insert(key);
            anchor_frag.insert(key, fragments.len() - 1);
        }
        self.lap(&mut clock, Phase::Strip);

        // Each fragment's bucket sits at its smallest anchor; the other
        // anchors hold empty buckets but still occupy BT_v positions
        // (the paper's BT_v spans all of Nset).
        let anchor_list: Vec<VKey> = anchors.iter().copied().collect();
        let mut rep_of_frag: SortedMap<usize, VKey> = SortedMap::new();
        for (&anchor, &frag) in anchor_frag.iter() {
            rep_of_frag.get_or_insert_with(frag, || anchor);
        }
        let mut buckets: Vec<Vec<WireTree>> = vec![Vec::new(); anchor_list.len()];
        let report_fragments = fragments.iter().filter(|f| !f.is_empty()).count();
        let trees_collected: usize = fragments.iter().map(Vec::len).sum();
        for (frag, trees) in fragments.into_iter().enumerate() {
            if trees.is_empty() {
                continue;
            }
            let rep = rep_of_frag
                .get(&frag)
                .expect("every non-empty fragment borders the victim");
            let pos = anchor_list.binary_search(rep).expect("anchor listed");
            buckets[pos].extend(trees);
        }
        let report_buckets = buckets.iter().filter(|b| !b.is_empty()).count();
        let affected_nodes = {
            let mut owners = SortedSet::new();
            for &a in &anchor_list {
                owners.insert(a.owner());
            }
            owners.len()
        };

        // The victim must be fully detached from the image by now.
        self.image.remove_node(v);
        self.lap(&mut clock, Phase::Plan);

        // Phase 2: BT_v bottom-up merge into a single reconstruction tree.
        let (rt, btv_rounds) = self.btv_merge(buckets);
        let (rt_leaves, rt_depth) = match rt {
            Some(root) => {
                let n = self.forest.node(root);
                (n.leaves, n.height)
            }
            None => (0, 0),
        };

        self.stats.deletes += 1;
        self.stats.btv_rounds += u64::from(btv_rounds);
        self.lap(&mut clock, Phase::Merge);
        let after = self.stats;
        Ok(RepairReport {
            deleted: v,
            ghost_degree,
            alive_neighbors: alive_nbrs.len(),
            nodes_ever,
            fragments: report_fragments,
            trees_collected,
            will_entries: removed.len(),
            buckets: report_buckets,
            affected_nodes,
            edges_added: after.edges_added - before.edges_added,
            edges_dropped: after.edges_dropped - before.edges_dropped,
            helpers_created: after.helpers_created - before.helpers_created,
            helpers_freed: after.helpers_freed - before.helpers_freed,
            leaves_created: after.leaves_created - before.leaves_created,
            leaves_removed: after.leaves_removed - before.leaves_removed,
            btv_rounds,
            rt_leaves,
            rt_depth,
        })
    }

    /// Shatter traversal (paper: the probe/strip phase, Algorithms A.4–A.6).
    ///
    /// Walks down from `key` within fragment `frag`; the victim's nodes
    /// split fragments, red nodes (tainted ancestors and old spine
    /// connectors) are freed, and maximal clean complete subtrees are
    /// emitted as the fragment's primary roots. Anchors encountered along
    /// the way are recorded with their fragment.
    #[allow(clippy::too_many_arguments)]
    fn gather(
        &mut self,
        key: VKey,
        frag: usize,
        removed: &SortedSet<VKey>,
        tainted: &SortedSet<VKey>,
        anchors: &SortedSet<VKey>,
        fragments: &mut Vec<Vec<WireTree>>,
        anchor_frag: &mut SortedMap<VKey, usize>,
    ) {
        if removed.contains(&key) {
            // The victim's node: children fall into separate fragments.
            let kids: Vec<VKey> = self.forest.children(key).collect();
            for &c in &kids {
                self.detach_edge(key, c);
            }
            if key.is_real() {
                self.stats.leaves_removed += 1;
            } else {
                self.stats.helpers_freed += 1;
            }
            self.forest.remove_isolated(key);
            for &c in &kids {
                fragments.push(Vec::new());
                let child_frag = fragments.len() - 1;
                self.gather(
                    c,
                    child_frag,
                    removed,
                    tainted,
                    anchors,
                    fragments,
                    anchor_frag,
                );
            }
        } else if tainted.contains(&key) || !self.forest.node(key).is_complete() {
            // Red node: freed, children stay in the current fragment.
            debug_assert!(key.is_helper(), "leaves are complete and never tainted");
            if anchors.contains(&key) {
                anchor_frag.insert(key, frag);
            }
            let kids: Vec<VKey> = self.forest.children(key).collect();
            for &c in &kids {
                self.detach_edge(key, c);
            }
            self.stats.helpers_freed += 1;
            self.forest.remove_isolated(key);
            for &c in &kids {
                self.gather(c, frag, removed, tainted, anchors, fragments, anchor_frag);
            }
        } else {
            // Primary root: a clean complete subtree survives wholesale.
            if anchors.contains(&key) {
                anchor_frag.insert(key, frag);
            }
            let desc = self.describe_tree(key);
            fragments[frag].push(desc);
        }
    }

    /// Detaches a parent→child tree edge and releases its image unit.
    pub(crate) fn detach_edge(&mut self, parent: VKey, child: VKey) {
        self.forest.detach_child(parent, child);
        self.image.dec(parent.owner(), child.owner());
        self.stats.edges_dropped += 1;
    }

    /// Exhaustive structural audit; used by every test layer.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.forest.validate()?;
        self.image.validate()?;

        // Slot legality.
        for (key, _) in self.forest.iter() {
            let Slot { owner, other } = key.slot;
            if !self.is_alive(owner) {
                return Err(format!("{key}: owner is dead"));
            }
            if self.is_alive(other) {
                return Err(format!("{key}: other endpoint still alive"));
            }
            if !self.ghost.has_edge(owner, other) {
                return Err(format!("{key}: no such G' edge"));
            }
        }

        // Helper placement: a helper's own leaf is a strict descendant.
        for (key, _) in self.forest.iter() {
            if key.is_helper() {
                let leaf = key.slot.real();
                let mut cur = leaf;
                let mut found = false;
                while let Some(p) = self.forest.node(cur).parent {
                    if p == key {
                        found = true;
                        break;
                    }
                    cur = p;
                }
                if !found {
                    return Err(format!("{key}: own leaf is not a descendant"));
                }
            }
        }

        // Every (alive, dead) G' edge has its leaf.
        for v in (0..self.nodes_ever()).map(|i| NodeId::new(i as u32)) {
            if !self.is_alive(v) {
                continue;
            }
            for x in self.ghost.neighbors(v) {
                if !self.is_alive(x) && !self.forest.contains(Slot::new(v, x).real()) {
                    return Err(format!("missing leaf real({v}→{x})"));
                }
            }
        }

        // Image counts must equal original-intact + forest edges.
        let mut expected = ImageGraph::new();
        for _ in 0..self.nodes_ever() {
            expected.add_node();
        }
        for e in self.ghost.edges() {
            if self.is_alive(e.lo()) && self.is_alive(e.hi()) {
                expected.inc(e.lo(), e.hi());
            }
        }
        for (key, node) in self.forest.iter() {
            for child in node.left.iter().chain(node.right.iter()) {
                expected.inc(key.owner(), child.owner());
            }
        }
        for v in self.image.simple().iter() {
            for u in self.image.simple().neighbors(v) {
                if v < u && self.image.multiplicity(v, u) != expected.multiplicity(v, u) {
                    return Err(format!(
                        "image multiplicity mismatch at ({v},{u}): {} vs {}",
                        self.image.multiplicity(v, u),
                        expected.multiplicity(v, u)
                    ));
                }
            }
        }
        for v in expected.simple().iter() {
            for u in expected.simple().neighbors(v) {
                if v < u && !self.image.simple().has_edge(v, u) {
                    return Err(format!("image missing expected edge ({v},{u})"));
                }
            }
        }

        // Hard degree envelope: ≤ 1 (leaf/original) + 3 (helper) per slot.
        for v in self.image.simple().iter() {
            let d_img = self.image.simple().degree(v);
            let d_ghost = self.ghost.degree(v);
            if d_img > 4 * d_ghost {
                return Err(format!(
                    "degree envelope broken at {v}: {d_img} > 4·{d_ghost}"
                ));
            }
        }
        Ok(())
    }

    /// Maximum over live nodes of `deg(v, G) / deg(v, G')` — Theorem 1.1's
    /// measured quantity. Returns 0.0 for an empty network.
    pub fn max_degree_ratio(&self) -> f64 {
        self.image
            .simple()
            .iter()
            .filter(|&v| self.ghost.degree(v) > 0)
            .map(|v| self.image.simple().degree(v) as f64 / self.ghost.degree(v) as f64)
            .fold(0.0, f64::max)
    }
}

impl Default for ForgivingGraph {
    fn default() -> Self {
        Self::new()
    }
}
