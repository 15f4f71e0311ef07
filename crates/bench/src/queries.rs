//! Query streams: configurable read workloads over a churning network,
//! and the live query API as the reference served answers are checked
//! against. perfbench draws its read-serve requests from a
//! [`QueryStream`] and checks what the server answers with
//! [`answer_api`] and [`answers_agree`].
//!
//! The pieces:
//!
//! * [`QueryMix`] — a weighted mix spec (`"dist:80,path:10,stretch:10"`)
//!   over the [`QueryKind`]s the read API serves;
//! * [`QueryWorkload`] — the mix, the seed and the hot-source skew a
//!   stream draws from;
//! * [`QueryStream`] — the deterministic generator of [`Query`]s.
//!
//! Query endpoints are drawn from the live node set at each block:
//! sources from a per-block *hot set* (read traffic concentrates on
//! popular nodes — the skew every distance-oracle serving layer
//! exploits), targets uniformly.

use fg_core::{GraphView, QueryOps};
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

/// A read workload description for a [`QueryStream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryWorkload {
    /// A query count for the stream's caller; nothing in the workspace
    /// reads it (a [`QueryStream`] emits as many queries as each
    /// [`QueryStream::block`] asks for).
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

/// One query's answer — held so a served answer can be compared with
/// the live one ([`answers_agree`]) after it is timed.
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

/// The live query API: `QueryOps` per-pair reads (bidirectional BFS) —
/// the in-process reference served answers are compared against.
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
}
