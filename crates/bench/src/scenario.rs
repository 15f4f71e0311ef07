//! The ScenarioRunner: named end-to-end workloads driven through any
//! [`SelfHealer`] with batched event ingestion and throughput accounting.
//!
//! A [`Scenario`] is an initial graph plus a pre-generated adversarial
//! event trace. Traces are produced by a *healer-independent* bookkeeper
//! (its own liveness table and insert-only degree counts), so the same
//! trace can be replayed against the sequential engine, the distributed
//! protocol and every baseline — and, because generation is excluded from
//! the timed region, throughput numbers measure the healer alone. After
//! each batch the runner publishes that batch's snapshot as the server
//! does, timed apart ([`RunResult::publish_seconds`]).
//!
//! The registry ([`WORKLOADS`], [`scenario`]) names the standard families:
//!
//! | name                 | shape                                               |
//! |----------------------|-----------------------------------------------------|
//! | `churn`              | p2p membership churn: 50/50 insert/delete, fan ≤ 3  |
//! | `hub-cascade`        | targeted attack: always kill the max-degree node    |
//! | `partition-then-heal`| two clusters, bridge nodes killed first, then churn |

use crate::json::Json;
use fg_core::{EngineError, GraphView, NetworkEvent, SelfHealer};
use fg_graph::{Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// The registered workload names, in registry order.
pub const WORKLOADS: &[&str] = &["churn", "hub-cascade", "partition-then-heal"];

/// An initial network plus a recorded adversarial trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Registry name this scenario was built from.
    pub name: String,
    /// Base size parameter (initial node count).
    pub n: usize,
    /// Trace seed.
    pub seed: u64,
    /// The starting network `G_0`.
    pub initial: Graph,
    /// The adversarial events, in order.
    pub events: Vec<NetworkEvent>,
}

impl Scenario {
    /// Number of deletion events in the trace.
    pub fn deletions(&self) -> usize {
        self.events.iter().filter(|e| e.is_delete()).count()
    }

    /// Serialises the scenario as a line-oriented trace file
    /// (`n <nodes>` / `e <u> <v>` / `I <nbr>...` / `D <victim>`), the
    /// format of `tests/golden/*.trace`, which [`Scenario::read_trace`]
    /// parses.
    pub fn to_trace(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("n {}\n", self.initial.nodes_ever()));
        for e in self.initial.edges() {
            out.push_str(&format!("e {} {}\n", e.lo().raw(), e.hi().raw()));
        }
        for event in &self.events {
            match event {
                NetworkEvent::Insert { neighbors } => {
                    out.push('I');
                    for x in neighbors {
                        out.push_str(&format!(" {}", x.raw()));
                    }
                    out.push('\n');
                }
                NetworkEvent::Delete { node } => {
                    out.push_str(&format!("D {}\n", node.raw()));
                }
            }
        }
        out
    }

    /// Parses a trace produced by [`Scenario::to_trace`].
    ///
    /// # Errors
    ///
    /// The first malformed line, by number: an unknown tag, a field that
    /// is not a node id, the wrong number of fields, or an initial edge
    /// that is a self-loop, a duplicate or names a node the `n` line did
    /// not create.
    pub fn read_trace(name: &str, text: &str) -> Result<Scenario, String> {
        let mut initial = Graph::new();
        let mut events = Vec::new();
        for (k, line) in text.lines().enumerate() {
            let bad = |detail: String| format!("line {}: {detail}", k + 1);
            let mut parts = line.split_whitespace();
            let Some(tag) = parts.next() else {
                continue;
            };
            let ids = parts
                .map(|p| {
                    p.parse()
                        .map_err(|e| bad(format!("{p:?} is not a node id: {e}")))
                })
                .collect::<Result<Vec<u32>, String>>()?;
            match (tag, &ids[..]) {
                ("n", &[count]) => {
                    while initial.nodes_ever() < count as usize {
                        initial.add_node();
                    }
                }
                ("e", &[u, v]) => initial
                    .add_edge(NodeId::new(u), NodeId::new(v))
                    .map_err(|e| bad(e.to_string()))?,
                ("I", ids) => {
                    events.push(NetworkEvent::insert(ids.iter().map(|&i| NodeId::new(i))))
                }
                ("D", &[v]) => events.push(NetworkEvent::delete(NodeId::new(v))),
                ("n" | "e" | "D", _) => {
                    return Err(bad(format!("wrong number of fields for {tag:?}")));
                }
                _ => return Err(bad(format!("unknown trace tag {tag:?}"))),
            }
        }
        let n = initial.nodes_ever();
        Ok(Scenario {
            name: name.to_string(),
            n,
            seed: 0,
            initial,
            events,
        })
    }
}

/// Healer-independent trace bookkeeping: liveness and insert-only degrees,
/// updated as events are recorded, so strategies can pick legal victims
/// and attachment targets without consulting any healer.
struct TraceBuilder {
    rng: ChaCha8Rng,
    /// Live node ids, unordered (swap-removed); picks index into this.
    alive: Vec<NodeId>,
    /// Position of each node in `alive`, or `usize::MAX` once dead.
    pos: Vec<usize>,
    /// Insert-only (`G'`) degree per node — deletions do not decrease it.
    ghost_deg: Vec<u32>,
    events: Vec<NetworkEvent>,
}

impl TraceBuilder {
    fn from_graph(g: &Graph, seed: u64) -> Self {
        let n = g.nodes_ever();
        TraceBuilder {
            rng: ChaCha8Rng::seed_from_u64(seed),
            alive: g.iter().collect(),
            pos: (0..n).collect(),
            ghost_deg: (0..n)
                .map(|i| g.degree(NodeId::new(i as u32)) as u32)
                .collect(),
            events: Vec::new(),
        }
    }

    fn alive_count(&self) -> usize {
        self.alive.len()
    }

    fn record_insert(&mut self, neighbors: Vec<NodeId>) {
        let v = NodeId::new(self.pos.len() as u32);
        self.pos.push(self.alive.len());
        self.alive.push(v);
        self.ghost_deg.push(neighbors.len() as u32);
        for &x in &neighbors {
            self.ghost_deg[x.index()] += 1;
        }
        self.events.push(NetworkEvent::insert(neighbors));
    }

    fn record_delete(&mut self, v: NodeId) {
        let p = self.pos[v.index()];
        assert_ne!(p, usize::MAX, "deleting a dead node");
        let last = *self.alive.last().expect("non-empty alive list");
        self.alive.swap_remove(p);
        if last != v {
            self.pos[last.index()] = p;
        }
        self.pos[v.index()] = usize::MAX;
        self.events.push(NetworkEvent::delete(v));
    }

    fn random_alive(&mut self) -> NodeId {
        self.alive[self.rng.gen_range(0..self.alive.len())]
    }

    /// A live node sampled proportionally to `ghost_deg + 1`.
    fn weighted_alive(&mut self) -> NodeId {
        let total: u64 = self
            .alive
            .iter()
            .map(|&v| u64::from(self.ghost_deg[v.index()]) + 1)
            .sum();
        let mut pick = self.rng.gen_range(0..total);
        for &v in &self.alive {
            let w = u64::from(self.ghost_deg[v.index()]) + 1;
            if pick < w {
                return v;
            }
            pick -= w;
        }
        unreachable!("weights cover the range")
    }

    /// The live node with the largest insert-only degree (ties: smallest id).
    fn max_degree_alive(&self) -> NodeId {
        *self
            .alive
            .iter()
            .max_by_key(|&&v| (self.ghost_deg[v.index()], std::cmp::Reverse(v)))
            .expect("non-empty alive list")
    }

    /// Up to `fan` distinct live attachment targets.
    fn pick_neighbors(&mut self, fan: usize, weighted: bool) -> Vec<NodeId> {
        let fan = fan.min(self.alive.len());
        let mut chosen: Vec<NodeId> = Vec::with_capacity(fan);
        let mut guard = 0;
        while chosen.len() < fan && guard < 20 * fan + 20 {
            guard += 1;
            let v = if weighted {
                self.weighted_alive()
            } else {
                self.random_alive()
            };
            if !chosen.contains(&v) {
                chosen.push(v);
            }
        }
        chosen
    }
}

/// Builds a named scenario: `n` initial nodes, exactly `events` adversarial
/// steps, all randomness drawn from `seed`.
///
/// # Panics
///
/// Panics on an unregistered name; see [`WORKLOADS`]. The binaries
/// check their names first ([`crate::BenchArgs::check_workloads`]).
pub fn scenario(name: &str, n: usize, events: usize, seed: u64) -> Scenario {
    let n = n.max(8);
    let (initial, tb) = match name {
        "churn" => {
            let g = fg_graph::generators::connected_erdos_renyi(n, 8.0 / n as f64, seed);
            let mut tb = TraceBuilder::from_graph(&g, seed ^ 0xc2b2ae35);
            let floor = (n / 2).max(8);
            while tb.events.len() < events {
                if tb.alive_count() > floor && tb.rng.gen_bool(0.5) {
                    let v = tb.random_alive();
                    tb.record_delete(v);
                } else {
                    let fan = tb.rng.gen_range(1..=3usize);
                    let nbrs = tb.pick_neighbors(fan, false);
                    tb.record_insert(nbrs);
                }
            }
            (g, tb)
        }
        "hub-cascade" => {
            let g = fg_graph::generators::barabasi_albert(n, 2, seed);
            let mut tb = TraceBuilder::from_graph(&g, seed ^ 0x27d4eb2f);
            while tb.events.len() < events {
                if tb.alive_count() <= (n / 2).max(8) {
                    let nbrs = tb.pick_neighbors(2, true);
                    tb.record_insert(nbrs);
                } else {
                    let v = tb.max_degree_alive();
                    tb.record_delete(v);
                }
            }
            (g, tb)
        }
        "partition-then-heal" => {
            let g = partition_graph(n, seed);
            let mut tb = TraceBuilder::from_graph(&g, seed ^ 0x85ebca6b);
            // Phase 1: kill every bridge node (ids n..nodes_ever), the
            // articulation points whose loss forces the largest repairs.
            let bridges: Vec<NodeId> = ((n as u32)..(g.nodes_ever() as u32))
                .map(NodeId::new)
                .collect();
            for b in bridges {
                if tb.events.len() < events {
                    tb.record_delete(b);
                }
            }
            // Phase 2: churn over the healed (re-joined) network.
            let floor = (n / 2).max(8);
            while tb.events.len() < events {
                if tb.alive_count() > floor && tb.rng.gen_bool(0.5) {
                    let v = tb.random_alive();
                    tb.record_delete(v);
                } else {
                    let fan = tb.rng.gen_range(2..=3usize);
                    let nbrs = tb.pick_neighbors(fan, false);
                    tb.record_insert(nbrs);
                }
            }
            (g, tb)
        }
        other => panic!("unknown workload {other:?}; registered: {WORKLOADS:?}"),
    };
    let mut events_vec = tb.events;
    events_vec.truncate(events);
    Scenario {
        name: name.to_string(),
        n,
        seed,
        initial,
        events: events_vec,
    }
}

/// Two ER clusters of `n/2` nodes each, joined only through
/// `max(2, n/32)` bridge nodes appended after them (one edge into each
/// side) — the `partition-then-heal` starting topology.
fn partition_graph(n: usize, seed: u64) -> Graph {
    let half = (n / 2).max(4);
    let a = fg_graph::generators::connected_erdos_renyi(half, 8.0 / half as f64, seed);
    let b = fg_graph::generators::connected_erdos_renyi(half, 8.0 / half as f64, seed ^ 1);
    let mut g = Graph::with_nodes(2 * half);
    for e in a.edges() {
        g.add_edge(e.lo(), e.hi()).expect("cluster A edge");
    }
    let off = half as u32;
    for e in b.edges() {
        g.add_edge(
            NodeId::new(e.lo().raw() + off),
            NodeId::new(e.hi().raw() + off),
        )
        .expect("cluster B edge");
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdeadbeef);
    for _ in 0..(n / 32).max(2) {
        let bridge = g.add_node();
        let left = NodeId::new(rng.gen_range(0..off));
        let right = NodeId::new(off + rng.gen_range(0..off));
        g.add_edge(bridge, left).expect("bridge edge");
        g.add_edge(bridge, right).expect("bridge edge");
    }
    g
}

/// Throughput/latency accounting for one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Scenario name.
    pub scenario: String,
    /// `SelfHealer::name()` of the driven backend.
    pub backend: String,
    /// Events applied.
    pub events: usize,
    /// Deletions among them.
    pub deletes: usize,
    /// Events per ingestion batch.
    pub batch_size: usize,
    /// Total wall-clock seconds over all batches.
    pub wall_seconds: f64,
    /// `events / wall_seconds`.
    pub events_per_sec: f64,
    /// Mean per-batch latency in milliseconds.
    pub mean_batch_ms: f64,
    /// Worst per-batch latency in milliseconds.
    pub max_batch_ms: f64,
    /// Wall-clock seconds publishing each batch's snapshot, advanced
    /// from the last one as the server does (the superseded snapshot's
    /// drop included); not part of `wall_seconds`.
    pub publish_seconds: f64,
    /// Live nodes after the run.
    pub final_nodes: usize,
    /// Live edges after the run.
    pub final_edges: usize,
    /// The paper's `n` (nodes ever seen) after the run.
    pub nodes_ever: usize,
    /// Image edge units added over the run (from the batch reports).
    pub edges_added: u64,
    /// Image edge units dropped over the run.
    pub edges_dropped: u64,
    /// Helpers created across all repairs.
    pub helpers_created: u64,
    /// Worst single-repair virtual-node churn of the run.
    pub max_churn: u64,
    /// Worst `churn / (d·⌈log₂ n⌉)` — the aggregate Theorem 1.3 envelope.
    pub max_normalized_churn: f64,
}

impl RunResult {
    /// The result as a JSON object for `BENCH_*.json` reports.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("scenario", Json::str(&self.scenario))
            .field("backend", Json::str(&self.backend))
            .field("events", Json::Int(self.events as i64))
            .field("deletes", Json::Int(self.deletes as i64))
            .field("batch_size", Json::Int(self.batch_size as i64))
            .field("wall_seconds", Json::Float(self.wall_seconds))
            .field("events_per_sec", Json::Float(self.events_per_sec))
            .field("mean_batch_ms", Json::Float(self.mean_batch_ms))
            .field("max_batch_ms", Json::Float(self.max_batch_ms))
            .field("publish_seconds", Json::Float(self.publish_seconds))
            .field("final_nodes", Json::Int(self.final_nodes as i64))
            .field("final_edges", Json::Int(self.final_edges as i64))
            .field("nodes_ever", Json::Int(self.nodes_ever as i64))
            .field("edges_added", Json::Int(self.edges_added as i64))
            .field("edges_dropped", Json::Int(self.edges_dropped as i64))
            .field("helpers_created", Json::Int(self.helpers_created as i64))
            .field("max_churn", Json::Int(self.max_churn as i64))
            .field(
                "max_normalized_churn",
                Json::Float(self.max_normalized_churn),
            )
    }
}

/// Drives scenarios through healers in timed batches.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioRunner {
    /// Events per ingestion batch (also the latency-measurement grain).
    pub batch_size: usize,
}

impl ScenarioRunner {
    /// A runner with the given batch size (clamped to ≥ 1).
    pub fn new(batch_size: usize) -> Self {
        ScenarioRunner {
            batch_size: batch_size.max(1),
        }
    }

    /// Replays `scenario` through `healer`, timing each ingestion batch,
    /// and publishes every batch's snapshot as the server does: the
    /// first is one untimed [`GraphView::freeze`], each later one is
    /// advanced from the last by
    /// [`FrozenView::advance`](fg_core::FrozenView::advance). Event
    /// application and publishing are timed apart, so `events_per_sec`
    /// measures the healer alone — trace generation happened when the
    /// scenario was built. Per-op telemetry is folded from the batch
    /// reports into the result's aggregate fields.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`]; scenario traces are legal by
    /// construction, so an error indicates a healer bug.
    pub fn run(
        &self,
        scenario: &Scenario,
        healer: &mut dyn SelfHealer,
    ) -> Result<RunResult, EngineError> {
        let mut tallies = Tallies::default();
        let mut frozen = healer.view().freeze();
        for batch in scenario.events.chunks(self.batch_size) {
            let start = Instant::now();
            let report = healer.apply_batch(batch)?;
            tallies.fold(start.elapsed().as_secs_f64(), &report);

            let view = healer.view();
            let start = Instant::now();
            frozen = frozen.advance(&view);
            tallies.publish += start.elapsed().as_secs_f64();
        }
        Ok(tallies.into_result(self, scenario, healer))
    }
}

/// Per-batch accounting for [`ScenarioRunner::run`].
#[derive(Debug, Default)]
struct Tallies {
    wall: f64,
    publish: f64,
    max_batch_ms: f64,
    batches: usize,
    edges_added: u64,
    edges_dropped: u64,
    helpers_created: u64,
    max_churn: u64,
    max_normalized_churn: f64,
}

impl Tallies {
    fn fold(&mut self, secs: f64, report: &fg_core::BatchReport) {
        self.wall += secs;
        self.max_batch_ms = self.max_batch_ms.max(secs * 1e3);
        self.batches += 1;
        self.edges_added += report.edges_added;
        self.edges_dropped += report.edges_dropped;
        self.helpers_created += report.helpers_created;
        self.max_churn = self.max_churn.max(report.max_churn);
        self.max_normalized_churn = self.max_normalized_churn.max(report.max_normalized_churn());
    }

    fn into_result(
        self,
        runner: &ScenarioRunner,
        scenario: &Scenario,
        healer: &dyn SelfHealer,
    ) -> RunResult {
        let events = scenario.events.len();
        let wall = self.wall;
        let batches = self.batches;
        RunResult {
            scenario: scenario.name.clone(),
            backend: healer.name().to_string(),
            events,
            deletes: scenario.deletions(),
            batch_size: runner.batch_size,
            wall_seconds: wall,
            events_per_sec: crate::rate(events as f64, wall),
            mean_batch_ms: crate::rate(wall * 1e3, batches as f64),
            max_batch_ms: self.max_batch_ms,
            publish_seconds: self.publish,
            final_nodes: healer.image().node_count(),
            final_edges: healer.image().edge_count(),
            nodes_ever: healer.ghost().nodes_ever(),
            edges_added: self.edges_added,
            edges_dropped: self.edges_dropped,
            helpers_created: self.helpers_created,
            max_churn: self.max_churn,
            max_normalized_churn: self.max_normalized_churn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_core::{ForgivingGraph, PlacementPolicy};
    use fg_dist::DistHealer;
    use fg_graph::traversal;

    #[test]
    fn every_registered_workload_generates_and_runs() {
        for &name in WORKLOADS {
            let sc = scenario(name, 32, 120, 7);
            assert_eq!(sc.events.len(), 120, "{name}");
            let mut fg = ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
            let result = ScenarioRunner::new(16)
                .run(&sc, &mut fg)
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert_eq!(result.events, 120, "{name}");
            assert!(result.deletes > 0, "{name} must exercise repairs");
            fg.check_invariants()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                traversal::is_connected(fg.image()),
                "{name} left the image disconnected"
            );
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = scenario("churn", 48, 200, 11);
        let b = scenario("churn", 48, 200, 11);
        assert_eq!(a, b);
        let c = scenario("churn", 48, 200, 12);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn engine_and_dist_agree_on_scenario_traces() {
        let sc = scenario("partition-then-heal", 24, 60, 3);
        let mut fg = ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
        let mut net = DistHealer::from_graph(&sc.initial, PlacementPolicy::Adjacent);
        let engine_run = ScenarioRunner::new(8)
            .run(&sc, &mut fg)
            .expect("engine run");
        let dist_run = ScenarioRunner::new(8).run(&sc, &mut net).expect("dist run");
        assert_eq!(SelfHealer::image(&net), fg.image());
        assert_eq!(SelfHealer::ghost(&net), fg.ghost());
        // Same structural reports under the façade ⇒ same aggregates.
        assert_eq!(dist_run.edges_added, engine_run.edges_added);
        assert_eq!(dist_run.edges_dropped, engine_run.edges_dropped);
        assert_eq!(dist_run.helpers_created, engine_run.helpers_created);
        assert_eq!(dist_run.max_churn, engine_run.max_churn);
    }

    #[test]
    fn trace_roundtrips_through_text() {
        let sc = scenario("churn", 24, 50, 5);
        let text = sc.to_trace();
        let back = Scenario::read_trace("churn", &text).expect("a written trace parses");
        assert_eq!(back.initial, sc.initial);
        assert_eq!(back.events, sc.events);
    }

    #[test]
    fn malformed_traces_name_the_line() {
        let refused = |text: &str| Scenario::read_trace("bad", text).unwrap_err();
        assert!(refused("[workspace]").starts_with("line 1: unknown trace tag"));
        assert!(refused("n 4\n\ne 0 x").starts_with("line 3: \"x\" is not a node id"));
        assert!(refused("n 4\nD").starts_with("line 2: wrong number of fields"));
        assert!(refused("n 4\ne 1 1").starts_with("line 2: "));
        assert!(refused("n 4\ne 1 9").starts_with("line 2: "));
    }

    #[test]
    fn run_result_json_has_throughput_fields() {
        let sc = scenario("churn", 16, 30, 2);
        let mut fg = ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
        let result = ScenarioRunner::new(10).run(&sc, &mut fg).expect("run");
        let text = result.to_json().pretty();
        assert!(text.contains("\"events_per_sec\""));
        assert!(text.contains("\"scenario\": \"churn\""));
    }

    #[test]
    fn bench_json_artifacts_round_trip_through_the_parser() {
        // The full report shape `throughput` writes: config + results.
        // Every field must survive a parse round-trip (no `inf`/`NaN`
        // leaks, stable float forms, parseable escapes).
        let sc = scenario("churn", 24, 80, 3);
        let mut fg = ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
        let run = ScenarioRunner::new(16).run(&sc, &mut fg).expect("run");
        let report = Json::obj()
            .field("bench", Json::str("throughput"))
            .field(
                "config",
                Json::obj()
                    .field("host_cpus", Json::Int(crate::host_cpus() as i64))
                    .field("events", Json::Int(80)),
            )
            .field("results", Json::Arr(vec![run.to_json()]));
        let text = report.pretty();
        let back = Json::parse(&text).expect("artifact must be parseable JSON");
        assert_eq!(back.pretty(), text, "parse→print must be a fixpoint");

        let result = match back.get("results") {
            Some(Json::Arr(items)) => &items[0],
            other => panic!("results array missing: {other:?}"),
        };
        for key in [
            "scenario",
            "backend",
            "events",
            "deletes",
            "batch_size",
            "wall_seconds",
            "events_per_sec",
            "mean_batch_ms",
            "max_batch_ms",
            "publish_seconds",
            "final_nodes",
            "final_edges",
            "nodes_ever",
            "edges_added",
            "edges_dropped",
            "helpers_created",
            "max_churn",
            "max_normalized_churn",
        ] {
            assert!(result.get(key).is_some(), "result field {key} missing");
        }
        // Rates render as floats even when the value is whole, so the
        // field's JSON type is stable across runs.
        for key in [
            "wall_seconds",
            "events_per_sec",
            "mean_batch_ms",
            "publish_seconds",
        ] {
            assert!(
                matches!(result.get(key), Some(Json::Float(f)) if f.is_finite()),
                "{key} must parse back as a finite float"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let _ = scenario("nope", 16, 10, 1);
    }
}
