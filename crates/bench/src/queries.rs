//! Mixed read/write workloads: configurable query streams interleaved
//! with churn, answered through the timed served path — one snapshot
//! publish per write batch, which is the publish cost the server pays,
//! then the [`FrozenView`] CSR kernels every served read runs on — and
//! checked against the live `QueryOps` answer as an untimed oracle.
//!
//! The pieces:
//!
//! * [`QueryMix`] — a weighted mix spec (`"dist:80,path:10,stretch:10"`)
//!   over the [`QueryKind`]s the read API serves;
//! * [`QueryWorkload`] — how many queries to interleave, the mix, the
//!   seed and the hot-source skew (wired through `--queries` /
//!   `--query-mix` / `--query-seed` / `--query-hot`);
//! * [`QueryStats`] — what a mixed run measured: served queries/sec and
//!   the (always zero) answer-mismatch count, serialised into the bench
//!   JSON next to the write-side throughput.
//!
//! Query endpoints are drawn from the live node set at each interleave
//! point: sources from a per-block *hot set* (read traffic concentrates
//! on popular nodes — the skew every distance-oracle serving layer
//! exploits), targets uniformly.

use crate::json::Json;
use fg_core::{FrozenView, GraphView, QueryOps};
use fg_graph::{Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The query kinds a [`QueryMix`] can weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `distance(u, v)` — shortest image hops.
    Distance,
    /// `path(u, v)` — a concrete shortest image path.
    Path,
    /// `stretch(u, v)` — image distance over `G'` distance.
    Stretch,
    /// `degree(u)` — image degree.
    Degree,
    /// `same_component(u, v)` — image reachability.
    Component,
}

/// Every kind, in spec order.
pub const QUERY_KINDS: &[QueryKind] = &[
    QueryKind::Distance,
    QueryKind::Path,
    QueryKind::Stretch,
    QueryKind::Degree,
    QueryKind::Component,
];

impl QueryKind {
    /// The spec token for this kind (`dist`, `path`, `stretch`, `deg`,
    /// `comp`).
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Distance => "dist",
            QueryKind::Path => "path",
            QueryKind::Stretch => "stretch",
            QueryKind::Degree => "deg",
            QueryKind::Component => "comp",
        }
    }

    fn from_label(s: &str) -> Option<QueryKind> {
        QUERY_KINDS.iter().copied().find(|k| k.label() == s)
    }
}

/// A weighted mix over [`QueryKind`]s, parsed from specs like
/// `"dist:80,path:10,stretch:10"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryMix {
    /// `(kind, weight)` pairs with positive weights, in spec order.
    weights: Vec<(QueryKind, u32)>,
}

impl QueryMix {
    /// The default 80/10/10 distance-heavy read mix.
    pub fn default_mix() -> QueryMix {
        QueryMix::parse("dist:80,path:10,stretch:10").expect("default mix parses")
    }

    /// Parses a `kind:weight,kind:weight,...` spec. Kinds: `dist`,
    /// `path`, `stretch`, `deg`, `comp`. Weights are relative (they need
    /// not sum to 100); zero-weight entries are dropped.
    ///
    /// # Errors
    ///
    /// A human-readable message on unknown kinds, malformed entries,
    /// duplicate kinds, or an all-zero mix.
    pub fn parse(spec: &str) -> Result<QueryMix, String> {
        let mut weights: Vec<(QueryKind, u32)> = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (label, weight) = entry
                .split_once(':')
                .ok_or_else(|| format!("query-mix entry {entry:?} is not kind:weight"))?;
            let kind = QueryKind::from_label(label.trim()).ok_or_else(|| {
                format!(
                    "unknown query kind {label:?}; expected one of dist, path, stretch, deg, comp"
                )
            })?;
            let weight: u32 = weight
                .trim()
                .parse()
                .map_err(|_| format!("query-mix weight {weight:?} is not a number"))?;
            if weights.iter().any(|(k, _)| *k == kind) {
                return Err(format!("duplicate query kind {label:?}"));
            }
            if weight > 0 {
                weights.push((kind, weight));
            }
        }
        if weights.is_empty() {
            return Err(format!("query mix {spec:?} has no positive weights"));
        }
        Ok(QueryMix { weights })
    }

    /// The canonical spec string (`kind:weight,...`).
    pub fn spec(&self) -> String {
        self.weights
            .iter()
            .map(|(k, w)| format!("{}:{w}", k.label()))
            .collect::<Vec<_>>()
            .join(",")
    }

    fn total(&self) -> u64 {
        self.weights.iter().map(|(_, w)| u64::from(*w)).sum()
    }

    fn pick(&self, rng: &mut ChaCha8Rng) -> QueryKind {
        let mut roll = rng.gen_range(0..self.total());
        for (kind, w) in &self.weights {
            let w = u64::from(*w);
            if roll < w {
                return *kind;
            }
            roll -= w;
        }
        unreachable!("weights cover the range")
    }
}

/// A mixed read/write workload description for
/// [`ScenarioRunner::run_mixed`](crate::ScenarioRunner::run_mixed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryWorkload {
    /// Total queries interleaved across the trace (spread evenly over
    /// the write batches — e.g. 4× the event count is an 80/20
    /// read/write mix).
    pub queries: usize,
    /// The weighted kind mix.
    pub mix: QueryMix,
    /// Seed for the query stream (independent of the trace seed).
    pub seed: u64,
    /// Hot-source set size per interleave block; `0` draws sources
    /// uniformly instead.
    pub hot: usize,
}

impl QueryWorkload {
    /// `queries` reads with the default mix, seed 1 and a 32-source
    /// sticky hot set.
    pub fn new(queries: usize) -> QueryWorkload {
        QueryWorkload {
            queries,
            mix: QueryMix::default_mix(),
            seed: 1,
            hot: 32,
        }
    }
}

/// One generated query.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Which read op to issue.
    pub kind: QueryKind,
    /// The source endpoint (drawn from the hot set when one is active).
    pub u: NodeId,
    /// The target endpoint (uniform over the live nodes).
    pub v: NodeId,
}

/// The deterministic query generator: emits `(kind, source, target)`
/// triples with sources drawn from a *sticky* hot set — popularity is
/// persistent, the way real read traffic concentrates on the same nodes
/// across many writes. Hot nodes that die are replaced (seeded rng picks
/// from the live set); targets are uniform over the live nodes.
pub struct QueryStream {
    rng: ChaCha8Rng,
    mix: QueryMix,
    hot: usize,
    hot_set: Vec<NodeId>,
}

impl QueryStream {
    /// A stream over `wl`'s mix, seed and hot-set size.
    pub fn new(wl: &QueryWorkload) -> QueryStream {
        QueryStream {
            rng: ChaCha8Rng::seed_from_u64(wl.seed),
            mix: wl.mix.clone(),
            hot: wl.hot,
            hot_set: Vec::new(),
        }
    }

    /// Generates `count` queries against the current live node set.
    pub fn block(&mut self, image: &Graph, count: usize) -> Vec<Query> {
        let live: Vec<NodeId> = image.iter().collect();
        if live.is_empty() || count == 0 {
            return Vec::new();
        }
        let uniform_sources = self.hot == 0 || self.hot >= live.len();
        if !uniform_sources {
            // Sticky popularity: keep surviving hot nodes, replace the
            // dead ones.
            self.hot_set.retain(|v| image.contains(*v));
            let mut guard = 0;
            while self.hot_set.len() < self.hot && guard < 20 * self.hot + 20 {
                guard += 1;
                let v = live[self.rng.gen_range(0..live.len())];
                if !self.hot_set.contains(&v) {
                    self.hot_set.push(v);
                }
            }
        }
        let sources: &[NodeId] = if uniform_sources {
            &live
        } else {
            &self.hot_set
        };
        (0..count)
            .map(|_| Query {
                kind: self.mix.pick(&mut self.rng),
                u: sources[self.rng.gen_range(0..sources.len())],
                v: live[self.rng.gen_range(0..live.len())],
            })
            .collect()
    }
}

/// One query's answer — held so the served path can be compared with
/// the oracle after it is timed.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A [`QueryKind::Distance`] answer.
    Dist(Option<u32>),
    /// A [`QueryKind::Path`] answer.
    Path(Option<Vec<NodeId>>),
    /// A [`QueryKind::Stretch`] answer.
    Stretch(Option<f64>),
    /// A [`QueryKind::Degree`] answer.
    Degree(Option<usize>),
    /// A [`QueryKind::Component`] answer.
    Component(bool),
}

impl Answer {
    /// Whether the query produced a usable answer (reachable pair, live
    /// node).
    pub fn answered(&self) -> bool {
        match self {
            Answer::Dist(d) => d.is_some(),
            Answer::Path(p) => p.is_some(),
            Answer::Stretch(s) => s.is_some(),
            Answer::Degree(d) => d.is_some(),
            Answer::Component(c) => *c,
        }
    }
}

/// The served read path: the [`FrozenView`] CSR kernels over the
/// snapshot frozen for the current epoch — what the server answers
/// every read from.
pub(crate) fn answer_served(view: &FrozenView, q: &Query) -> Answer {
    match q.kind {
        QueryKind::Distance => Answer::Dist(view.distance(q.u, q.v)),
        QueryKind::Path => Answer::Path(view.path(q.u, q.v)),
        QueryKind::Stretch => Answer::Stretch(view.stretch(q.u, q.v)),
        QueryKind::Degree => Answer::Degree(view.degree(q.u)),
        QueryKind::Component => Answer::Component(view.same_component(q.u, q.v)),
    }
}

/// The live query API: `QueryOps` per-pair reads (bidirectional BFS).
/// The oracle mixed runs check the served path against, and the
/// in-process reference the served (`fg-serve`) differential harnesses
/// compare against.
pub fn answer_api(view: &impl GraphView, q: &Query) -> Answer {
    match q.kind {
        QueryKind::Distance => Answer::Dist(view.distance(q.u, q.v)),
        QueryKind::Path => Answer::Path(view.path(q.u, q.v)),
        QueryKind::Stretch => Answer::Stretch(view.stretch(q.u, q.v)),
        QueryKind::Degree => Answer::Degree(view.degree(q.u)),
        QueryKind::Component => Answer::Component(view.same_component(q.u, q.v)),
    }
}

/// Whether two read paths' answers agree. Shortest paths need not be
/// node-identical — they must exist iff the other does, be equally
/// short, connect the right endpoints, and walk real image edges (both
/// sides are validated).
pub fn answers_agree(q: &Query, a: &Answer, b: &Answer, image: &Graph) -> bool {
    fn valid_path(q: &Query, p: &[NodeId], image: &Graph) -> bool {
        p.first() == Some(&q.u)
            && p.last() == Some(&q.v)
            && (p.len() == 1 || p.windows(2).all(|e| image.has_edge(e[0], e[1])))
    }
    match (a, b) {
        (Answer::Path(a), Answer::Path(b)) => match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.len() == b.len() && valid_path(q, a, image) && valid_path(q, b, image)
            }
            _ => false,
        },
        (a, b) => a == b,
    }
}

/// What one mixed read/write run measured on the read side.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStats {
    /// Queries actually issued (0 when the trace emptied the network).
    pub queries: usize,
    /// The canonical mix spec.
    pub mix: String,
    /// The stream seed.
    pub seed: u64,
    /// Hot-source set size (0 = uniform sources).
    pub hot: usize,
    /// Issued queries per kind, in [`QUERY_KINDS`] order.
    pub by_kind: Vec<(&'static str, usize)>,
    /// Queries whose answer was `None`/unreachable.
    pub unanswered: usize,
    /// Answers that disagreed with the live `QueryOps` oracle — **always
    /// zero**; recorded (and gated in CI) rather than assumed.
    pub mismatches: usize,
    /// Wall-clock seconds publishing the post-batch snapshot, once per
    /// write batch, by advancing the last one as the server does — the
    /// publish cost the server pays, charged to
    /// [`QueryStats::served_qps`].
    pub freeze_seconds: f64,
    /// Wall-clock seconds answering from the frozen snapshots.
    pub served_seconds: f64,
    /// `queries / (served_seconds + freeze_seconds)` — served throughput
    /// inclusive of the per-batch freezes.
    pub served_qps: f64,
}

impl QueryStats {
    /// The stats as a JSON object for `BENCH_*.json` reports.
    pub fn to_json(&self) -> Json {
        let mut kinds = Json::obj();
        for (label, count) in &self.by_kind {
            kinds = kinds.field(*label, Json::Int(*count as i64));
        }
        Json::obj()
            .field("queries", Json::Int(self.queries as i64))
            .field("mix", Json::str(&self.mix))
            .field("seed", Json::Int(self.seed as i64))
            .field("hot", Json::Int(self.hot as i64))
            .field("by_kind", kinds)
            .field("unanswered", Json::Int(self.unanswered as i64))
            .field("mismatches", Json::Int(self.mismatches as i64))
            .field("freeze_seconds", Json::Float(self.freeze_seconds))
            .field("served_seconds", Json::Float(self.served_seconds))
            .field("queries_per_sec_served", Json::Float(self.served_qps))
    }

    /// Folds one answered block into the tallies.
    pub(crate) fn record(&mut self, q: &Query, answered: bool, agreed: bool) {
        self.queries += 1;
        if let Some(slot) = self.by_kind.iter_mut().find(|(l, _)| *l == q.kind.label()) {
            slot.1 += 1;
        }
        if !answered {
            self.unanswered += 1;
        }
        if !agreed {
            self.mismatches += 1;
        }
    }

    pub(crate) fn empty(wl: &QueryWorkload) -> QueryStats {
        QueryStats {
            queries: 0,
            mix: wl.mix.spec(),
            seed: wl.seed,
            hot: wl.hot,
            by_kind: QUERY_KINDS.iter().map(|k| (k.label(), 0)).collect(),
            unanswered: 0,
            mismatches: 0,
            freeze_seconds: 0.0,
            served_seconds: 0.0,
            served_qps: 0.0,
        }
    }

    pub(crate) fn finish(&mut self) {
        self.served_qps = crate::rate(
            self.queries as f64,
            self.served_seconds + self.freeze_seconds,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_canonicalizes() {
        let mix = QueryMix::parse("dist:80, path:10 ,stretch:10").unwrap();
        assert_eq!(mix.spec(), "dist:80,path:10,stretch:10");
        assert_eq!(QueryMix::default_mix(), mix);
        let all = QueryMix::parse("dist:1,path:1,stretch:1,deg:1,comp:1").unwrap();
        assert_eq!(all.total(), 5);
        // Zero weights are dropped.
        let lean = QueryMix::parse("dist:5,path:0").unwrap();
        assert_eq!(lean.spec(), "dist:5");
    }

    #[test]
    fn bad_mixes_are_rejected() {
        assert!(QueryMix::parse("").is_err());
        assert!(QueryMix::parse("dist").is_err());
        assert!(QueryMix::parse("teleport:5").is_err());
        assert!(QueryMix::parse("dist:x").is_err());
        assert!(QueryMix::parse("dist:1,dist:2").is_err());
        assert!(QueryMix::parse("dist:0").is_err());
    }

    #[test]
    fn mix_picks_follow_the_weights() {
        let mix = QueryMix::parse("dist:99,comp:1").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let dists = (0..500)
            .filter(|_| mix.pick(&mut rng) == QueryKind::Distance)
            .count();
        assert!(dists > 450, "got {dists}/500 dist picks");
    }

    #[test]
    fn stream_is_deterministic_and_respects_hot_set() {
        let g = fg_graph::generators::cycle(32);
        let wl = QueryWorkload::new(100);
        let a = QueryStream::new(&wl).block(&g, 50);
        let b = QueryStream::new(&wl).block(&g, 50);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.kind, x.u, x.v), (y.kind, y.u, y.v));
        }
        let mut hot_wl = QueryWorkload::new(100);
        hot_wl.hot = 4;
        let block = QueryStream::new(&hot_wl).block(&g, 200);
        let mut sources: Vec<NodeId> = block.iter().map(|q| q.u).collect();
        sources.sort_unstable();
        sources.dedup();
        assert!(sources.len() <= 4, "hot set leaked: {sources:?}");
    }

    #[test]
    fn query_stats_json_shape() {
        let wl = QueryWorkload::new(10);
        let mut stats = QueryStats::empty(&wl);
        stats.finish();
        let text = stats.to_json().pretty();
        assert!(text.contains("\"queries_per_sec_served\""));
        assert!(text.contains("\"mix\": \"dist:80,path:10,stretch:10\""));
        assert!(text.contains("\"mismatches\": 0"));
    }
}
