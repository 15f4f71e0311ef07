//! The network simulator: per-node actors under a deterministic
//! round-based scheduler, plus the globally materialized views
//! (`G'`, the image, liveness) that measurements read.
//!
//! A repair is one sequential round loop (DESIGN.md §9): each round's
//! messages are handled in canonical `(priority, sender, seq)` order, and
//! the phase kickoffs and the end-of-repair clear visit only the
//! processors the repair has touched, so a repair costs the order of its
//! messages, not of the network.

use fg_core::{EngineError, ImageGraph, InsertReport, PlacementPolicy, RepairReport, Slot, VKey};
use fg_graph::{Graph, NodeId, SortedMap, SortedSet};

use crate::cost::{ceil_log2, RepairCost};
use crate::message::Message;
use crate::processor::{Ctx, Processor, RepairTally, Shared, VLinks};

/// A self-healing network running the Forgiving Graph's repair as a
/// message-passing protocol (paper §4 / Lemma 4).
///
/// Protocol state — the reconstruction forest — lives in per-node actors
/// (`Processor`s) that only communicate through typed messages delivered
/// in synchronous rounds. The `Network` itself holds the materialized
/// global observables (the ghost graph `G'`, the healed image, liveness)
/// exactly as the sequential engine does, so the two implementations can
/// be compared state-for-state; the differential suite replays identical
/// adversarial traces through both and asserts equality after every event.
///
/// # Examples
///
/// ```
/// use fg_core::PlacementPolicy;
/// use fg_dist::Network;
/// use fg_graph::{generators, traversal, NodeId};
///
/// let mut net = Network::from_graph(&generators::star(9), PlacementPolicy::Adjacent);
/// let cost = net.delete(NodeId::new(0))?;
/// assert_eq!(cost.victim_degree, 8);
/// assert!(cost.normalized_messages() < 16.0);
/// assert!(traversal::is_connected(net.image()));
/// # Ok::<(), fg_core::EngineError>(())
/// ```
#[derive(Debug)]
pub struct Network {
    ghost: Graph,
    alive: Vec<bool>,
    image: ImageGraph,
    policy: PlacementPolicy,
    /// One actor per processor ever created, indexed by node id.
    procs: Vec<Processor>,
    /// Accounting for every repair this network has run, in order.
    pub repair_costs: Vec<RepairCost>,
}

impl Network {
    /// Adopts an existing network as `G_0` — pure state initialisation,
    /// no preprocessing messages (the paper's improvement over the
    /// Forgiving Tree's `O(n log n)` setup).
    ///
    /// # Panics
    ///
    /// Panics if `g` contains removed (tombstoned) nodes.
    pub fn from_graph(g: &Graph, policy: PlacementPolicy) -> Self {
        assert_eq!(
            g.node_count(),
            g.nodes_ever(),
            "G0 must not contain tombstoned nodes"
        );
        let mut net = Network {
            ghost: Graph::new(),
            alive: Vec::new(),
            image: ImageGraph::new(),
            policy,
            procs: Vec::new(),
            repair_costs: Vec::new(),
        };
        for i in 0..g.node_count() {
            net.ghost.add_node();
            net.image.add_node();
            net.alive.push(true);
            net.procs.push(Processor::new(NodeId::new(i as u32)));
        }
        for e in g.edges() {
            net.ghost
                .add_edge(e.lo(), e.hi())
                .expect("copying a simple graph");
            net.image.inc(e.lo(), e.hi());
        }
        net
    }

    /// The insert-only graph `G'`.
    pub fn ghost(&self) -> &Graph {
        &self.ghost
    }

    /// The healed network as a simple graph over live processors.
    pub fn image(&self) -> &Graph {
        self.image.simple()
    }

    /// Whether `v` is currently alive.
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.alive.get(v.index()).copied().unwrap_or(false)
    }

    /// An epoch-stamped read-only snapshot of the **quiescent** protocol
    /// state.
    ///
    /// Every public operation runs its repair to quiescence before it
    /// returns, so the image this view exposes is the exact
    /// materialization of the per-processor state — never a mid-round
    /// mixture. Query it through
    /// `fg_core::QueryOps`; the query differential suite asserts its
    /// answers are bit-identical to the sequential engine's views along
    /// every adversarial trace.
    pub fn view(&self) -> fg_core::View<'_> {
        fg_core::View::over(self.image(), self.ghost())
    }

    /// Live node count.
    pub fn alive_count(&self) -> usize {
        self.image.simple().node_count()
    }

    /// Total nodes ever seen — the paper's `n`.
    pub fn nodes_ever(&self) -> usize {
        self.ghost.nodes_ever()
    }

    /// The placement policy every merge plan uses.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Number of virtual nodes currently alive across all processors.
    pub fn vnode_count(&self) -> usize {
        self.procs.iter().map(|p| p.vnodes.len()).sum()
    }

    /// The distributed reconstruction forest, flattened for comparison
    /// with the sequential engine: `(key, parent, left, right, leaves,
    /// height, representative)` in key order. The differential suite
    /// asserts this equals the engine's forest after every event.
    #[allow(clippy::type_complexity)]
    pub fn forest_snapshot(
        &self,
    ) -> Vec<(
        VKey,
        Option<VKey>,
        Option<VKey>,
        Option<VKey>,
        u32,
        u32,
        Slot,
    )> {
        let mut out: Vec<_> = self
            .procs
            .iter()
            .flat_map(|p| p.vnodes.iter())
            .map(|(key, n)| (*key, n.parent, n.left, n.right, n.leaves, n.height, n.rep))
            .collect();
        out.sort_by_key(|entry| entry.0);
        out
    }

    /// Adversarially inserts a node connected to `neighbors`.
    ///
    /// Insertion needs no healing (paper §3): the new processor and its
    /// neighbours record the edges locally.
    ///
    /// # Errors
    ///
    /// Mirrors the engine: [`EngineError::EmptyNeighbourhood`],
    /// [`EngineError::DuplicateNeighbour`], [`EngineError::NotAlive`].
    pub fn insert(&mut self, neighbors: &[NodeId]) -> Result<NodeId, EngineError> {
        self.insert_report(neighbors).map(|report| report.node)
    }

    /// [`Network::insert`], returning the [`InsertReport`] — identical to
    /// the sequential engine's.
    pub(crate) fn insert_report(
        &mut self,
        neighbors: &[NodeId],
    ) -> Result<InsertReport, EngineError> {
        if neighbors.is_empty() {
            return Err(EngineError::EmptyNeighbourhood);
        }
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
        self.procs.push(Processor::new(v));
        for &x in neighbors {
            self.ghost.add_edge(v, x).expect("fresh node, fresh edges");
            self.image.inc(v, x);
        }
        Ok(InsertReport {
            node: v,
            neighbors: neighbors.len(),
            edges_added: neighbors.len() as u64,
        })
    }

    /// Adversarially deletes `v` and runs the repair protocol to
    /// quiescence, returning the Lemma 4 accounting.
    ///
    /// The repair proceeds in the paper's phases, each a burst of
    /// synchronous message rounds: will-based failure detection, the
    /// upward taint climb, the shatter walk that frees red nodes and
    /// collects primary roots per fragment, bucket routing to each
    /// fragment's smallest anchor, and the bottom-up `BT_v` merge in which
    /// anchors strip incoming hafts and execute the shared `ComputeHaft`
    /// blueprint through `MakeHelper`/`SetParent` messages.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotAlive`] if `v` is unknown or already deleted.
    pub fn delete(&mut self, v: NodeId) -> Result<RepairCost, EngineError> {
        self.delete_report(v).map(|(_, cost)| cost)
    }

    /// [`Network::delete`], returning the structural [`RepairReport`]
    /// beside the Lemma 4 [`RepairCost`] (which is also pushed onto
    /// [`Network::repair_costs`]).
    ///
    /// Every report field is a structural quantity of the repair, so this
    /// report is bit-identical to the sequential engine's for the same
    /// event on the same state — the differential suite asserts it.
    pub(crate) fn delete_report(
        &mut self,
        v: NodeId,
    ) -> Result<(RepairReport, RepairCost), EngineError> {
        if !self.is_alive(v) {
            return Err(EngineError::NotAlive(v));
        }
        let victim_degree = self.ghost.degree(v);
        let nodes_ever = self.ghost.nodes_ever();

        // ------------------------------------------------------------
        // Phase 0 — the failure is detected. The victim's will (its slot
        // table, replicated to image neighbours while it was alive) lets
        // every affected processor act locally and identically.
        // ------------------------------------------------------------
        let alive_nbrs: SortedSet<NodeId> = self
            .ghost
            .neighbors(v)
            .filter(|&x| self.is_alive(x))
            .collect();
        let removed: SortedMap<VKey, VLinks> = self.procs[v.index()].take_will();
        let mut anchor_set = SortedSet::new();
        for links in removed.values() {
            for adj in links
                .parent
                .iter()
                .chain(links.left.iter())
                .chain(links.right.iter())
            {
                if !removed.contains_key(adj) {
                    anchor_set.insert(*adj);
                }
            }
        }
        for &x in &alive_nbrs {
            anchor_set.insert(Slot::new(x, v).real());
        }
        let shared = Shared {
            victim: v,
            alive_nbrs,
            removed,
            anchors: anchor_set.iter().copied().collect(),
            anchor_set,
            policy: self.policy,
        };
        self.alive[v.index()] = false;

        let mut ctx = Ctx {
            outbox: Vec::new(),
            image: &mut self.image,
            tally: RepairTally::default(),
            btv_root: None,
        };
        // The victim's processor vanishes; internal tree edges between two
        // of its own virtual nodes collapse to self-loops nobody else can
        // release, so the simulator settles them here. The victim's own
        // virtual nodes (leaves and helpers) are what the will removes.
        for (key, links) in shared.removed.iter() {
            if key.is_real() {
                ctx.tally.leaves_removed += 1;
            } else {
                ctx.tally.helpers_freed += 1;
            }
            for child in links.left.iter().chain(links.right.iter()) {
                if shared.removed.contains_key(child) {
                    ctx.edge_drop(v, v);
                }
            }
        }

        // Run the phases: failure detection at the victim's image
        // neighbours, the taint climb it seeds (phase 1), and one kickoff
        // + message burst for each of the shatter walk (2), bucket routing
        // (3) and the bottom-up BT_v merge (4).
        let mut rounds = RoundLoop {
            touched: ctx.image.simple().neighbors(v).collect(),
            procs: &mut self.procs,
            shared: &shared,
            ctx,
            cost: RepairCost {
                victim_degree,
                messages: 0,
                rounds: 0,
                bits: 0,
                max_message_bits: 0,
                nodes_ever,
            },
        };
        for phase in [Phase::Detect, Phase::Walks, Phase::Buckets, Phase::Merges] {
            rounds.kickoff(phase);
        }
        let RoundLoop {
            touched, ctx, cost, ..
        } = rounds;
        let Ctx {
            tally, btv_root, ..
        } = ctx;

        // Quiesced: the victim is fully detached. Repair scratch is
        // cleared wherever it can exist — at the touched processors.
        self.image.remove_node(v);
        for u in &touched {
            self.procs[u.index()].end_repair();
        }

        // The structural report — field for field what the sequential
        // engine computes from its own stats deltas, derived here from the
        // tally, the will, and the final `BT_v` output.
        let anchor_count = shared.anchors.len();
        let btv_rounds = if anchor_count == 0 {
            0
        } else {
            usize::BITS - 1 - anchor_count.leading_zeros()
        };
        let (rt_leaves, rt_depth) = match &btv_root {
            Some(wt) => (wt.size, wt.height),
            None => (0, 0),
        };
        let affected_nodes = {
            let mut owners = SortedSet::new();
            for a in &shared.anchors {
                owners.insert(a.owner());
            }
            owners.len()
        };
        let report = RepairReport {
            deleted: v,
            ghost_degree: victim_degree,
            alive_neighbors: shared.alive_nbrs.len(),
            nodes_ever,
            fragments: tally.fragments,
            trees_collected: tally.trees_collected,
            will_entries: shared.removed.len(),
            buckets: tally.buckets,
            affected_nodes,
            edges_added: tally.edges_added,
            edges_dropped: tally.edges_dropped,
            helpers_created: tally.helpers_created,
            helpers_freed: tally.helpers_freed,
            leaves_created: tally.leaves_created,
            leaves_removed: tally.leaves_removed,
            btv_rounds,
            rt_leaves,
            rt_depth,
        };
        self.repair_costs.push(cost.clone());
        Ok((report, cost))
    }
}

/// The kickoff that opens each phase of a repair.
#[derive(Clone, Copy)]
enum Phase {
    /// Failure detection: every image neighbour of the victim processes
    /// the will.
    Detect,
    /// Start the shatter walk at every fragment seed.
    Walks,
    /// Route every fragment's bucket to its smallest anchor.
    Buckets,
    /// Fire every `BT_v` position a processor anchors.
    Merges,
}

/// One repair's sequential round loop.
struct RoundLoop<'a> {
    procs: &'a mut [Processor],
    shared: &'a Shared,
    ctx: Ctx<'a>,
    /// Every processor that can hold repair scratch: the victim's image
    /// neighbours, where `receive_will` runs, plus every delivered
    /// message's destination. Scratch arises nowhere else, so kickoffs
    /// and the final clear visit only these (DESIGN.md §9).
    touched: SortedSet<NodeId>,
    cost: RepairCost,
}

impl RoundLoop<'_> {
    /// Runs `phase`'s kickoff round at every touched processor, in id
    /// order, then delivers message rounds until the network quiesces.
    fn kickoff(&mut self, phase: Phase) {
        self.cost.rounds += 1;
        for u in self.touched.iter() {
            let p = &mut self.procs[u.index()];
            match phase {
                Phase::Detect => p.receive_will(self.shared, &mut self.ctx),
                Phase::Walks => p.start_walks(self.shared, &mut self.ctx),
                Phase::Buckets => p.route_buckets(&mut self.ctx),
                Phase::Merges => p.start_merges(self.shared, &mut self.ctx),
            }
        }
        loop {
            let mut queue = std::mem::take(&mut self.ctx.outbox);
            if queue.is_empty() {
                return;
            }
            self.count(&queue);
            self.cost.rounds += 1;
            queue.sort_by_key(Message::key);
            for msg in queue {
                self.touched.insert(msg.dst);
                self.procs[msg.dst.index()].handle(msg.payload, self.shared, &mut self.ctx);
            }
        }
    }

    /// Adds one round's messages to the Lemma 4 tallies. Self-addressed
    /// messages model local computation and are free.
    fn count(&mut self, queue: &[Message]) {
        let name_bits = ceil_log2(self.cost.nodes_ever);
        for m in queue {
            if m.src == m.dst {
                continue;
            }
            let bits = m.payload.bits(name_bits);
            self.cost.messages += 1;
            self.cost.bits += bits;
            self.cost.max_message_bits = self.cost.max_message_bits.max(bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_core::ForgivingGraph;
    use fg_graph::{generators, traversal};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn assert_lockstep(net: &Network, fg: &ForgivingGraph) {
        assert_eq!(net.image(), fg.image(), "images diverged");
        assert_eq!(net.ghost(), fg.ghost(), "ghosts diverged");
        let engine: Vec<_> = fg
            .forest()
            .iter()
            .map(|(k, vn)| {
                (
                    k, vn.parent, vn.left, vn.right, vn.leaves, vn.height, vn.rep,
                )
            })
            .collect();
        assert_eq!(net.forest_snapshot(), engine, "forests diverged");
    }

    #[test]
    fn star_hub_repair_matches_engine() {
        let g = generators::star(9);
        let mut net = Network::from_graph(&g, PlacementPolicy::Adjacent);
        let mut fg = ForgivingGraph::from_graph(&g).unwrap();
        let cost = net.delete(n(0)).unwrap();
        let _ = fg.delete(n(0)).unwrap();
        assert_lockstep(&net, &fg);
        assert!(traversal::is_connected(net.image()));
        assert_eq!(cost.victim_degree, 8);
        assert!(cost.messages > 0);
        assert!(cost.rounds > 3, "a real repair takes several rounds");
    }

    #[test]
    fn cascade_on_grid_matches_engine() {
        let g = generators::grid(4, 4);
        let mut net = Network::from_graph(&g, PlacementPolicy::Adjacent);
        let mut fg = ForgivingGraph::from_graph(&g).unwrap();
        for i in 0..16u32 {
            net.delete(n(i)).unwrap();
            let _ = fg.delete(n(i)).unwrap();
            assert_lockstep(&net, &fg);
        }
        assert_eq!(net.alive_count(), 0);
        assert_eq!(net.vnode_count(), 0, "the distributed forest must drain");
    }

    #[test]
    fn paper_exact_policy_matches_engine() {
        let g = generators::connected_erdos_renyi(24, 0.12, 5);
        let mut net = Network::from_graph(&g, PlacementPolicy::PaperExact);
        let mut fg =
            ForgivingGraph::from_graph_with_policy(&g, PlacementPolicy::PaperExact).unwrap();
        for i in [0u32, 3, 7, 11, 2, 15, 9] {
            net.delete(n(i)).unwrap();
            let _ = fg.delete(n(i)).unwrap();
            assert_lockstep(&net, &fg);
        }
    }

    #[test]
    fn inserts_mirror_engine() {
        let g = generators::cycle(6);
        let mut net = Network::from_graph(&g, PlacementPolicy::Adjacent);
        let mut fg = ForgivingGraph::from_graph(&g).unwrap();
        let a = net.insert(&[n(0), n(3)]).unwrap();
        let b = fg.insert(&[n(0), n(3)]).unwrap();
        assert_eq!(a, b);
        net.delete(n(0)).unwrap();
        let _ = fg.delete(n(0)).unwrap();
        assert_lockstep(&net, &fg);
        assert_eq!(
            net.insert(&[n(0)]),
            Err(EngineError::NotAlive(n(0))),
            "dead neighbours are rejected"
        );
        assert_eq!(net.insert(&[]), Err(EngineError::EmptyNeighbourhood));
        assert_eq!(
            net.insert(&[n(1), n(1)]),
            Err(EngineError::DuplicateNeighbour(n(1)))
        );
    }

    #[test]
    fn delete_errors_match_engine() {
        let mut net = Network::from_graph(&generators::path(3), PlacementPolicy::Adjacent);
        assert_eq!(net.delete(n(9)), Err(EngineError::NotAlive(n(9))));
        net.delete(n(1)).unwrap();
        assert_eq!(net.delete(n(1)), Err(EngineError::NotAlive(n(1))));
    }

    #[test]
    fn isolated_victim_needs_no_messages() {
        let mut g = generators::path(3);
        let iso = g.add_node();
        let mut net = Network::from_graph(&g, PlacementPolicy::Adjacent);
        let cost = net.delete(iso).unwrap();
        assert_eq!(cost.messages, 0);
        assert_eq!(cost.victim_degree, 0);
    }

    #[test]
    fn repair_is_deterministic() {
        let build = || {
            let g = generators::connected_erdos_renyi(20, 0.15, 3);
            let mut net = Network::from_graph(&g, PlacementPolicy::Adjacent);
            let costs: Vec<RepairCost> = (0..6u32).map(|i| net.delete(n(i)).unwrap()).collect();
            (net.forest_snapshot(), costs)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn repair_scratch_never_outlives_its_repair() {
        // Kickoffs and the end-of-repair clear visit only the touched
        // processors, so scratch created anywhere else would survive the
        // repair. Check every processor after every deletion of a mixed
        // insert/delete trace, so a leak fails at the repair that made it.
        let g = generators::connected_erdos_renyi(300, 0.02, 17);
        let mut net = Network::from_graph(&g, PlacementPolicy::Adjacent);
        let mut fg = ForgivingGraph::from_graph(&g).unwrap();
        let mut live: Vec<NodeId> = g.iter().collect();
        let mut pick = 7usize;
        for step in 0..240 {
            pick = (pick * 31 + 11) % 1_000_003;
            if step % 4 == 3 {
                let (a, b) = (live[pick % live.len()], live[(pick / 7) % live.len()]);
                let nbrs = if a == b { vec![a] } else { vec![a, b] };
                let x = net.insert(&nbrs).unwrap();
                assert_eq!(fg.insert(&nbrs).unwrap(), x);
                live.push(x);
            } else {
                let victim = live.swap_remove(pick % live.len());
                net.delete(victim).unwrap();
                let _ = fg.delete(victim).unwrap();
                for p in &net.procs {
                    assert!(p.is_idle(), "{} kept scratch after {victim}'s repair", p.id);
                }
            }
        }
        assert_lockstep(&net, &fg);
    }

    #[test]
    fn delete_with_reports_match_engine_reports() {
        let g = generators::connected_erdos_renyi(18, 0.16, 9);
        let mut net = Network::from_graph(&g, PlacementPolicy::Adjacent);
        let mut fg = ForgivingGraph::from_graph(&g).unwrap();
        for i in [0u32, 4, 9, 2, 13] {
            let (dist_report, _) = net.delete_report(n(i)).unwrap();
            let engine_report = fg.delete(n(i)).unwrap();
            assert_eq!(dist_report, engine_report, "reports diverged at n{i}");
        }
    }
}
