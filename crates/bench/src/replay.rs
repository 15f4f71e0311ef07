//! Trace replay, outcome digests, query digests, and digest-file
//! parsing — shared by the golden-trace regression suite
//! (`tests/golden_traces.rs`) and the golden crash-injection sweep
//! (`tests/crash_recovery.rs`).
//!
//! A *digest stream* is one stable 64-bit digest per event (see
//! [`fg_core::ReportDigest`]): the digest of the typed outcome the healer
//! returned. Two healers replaying the same trace produce the same digest
//! stream iff their per-event reports are bit-identical — which is the
//! protocol/engine convergence contract, so digest files double as a
//! compact regression corpus.
//!
//! *Query digests* ([`query_digest`] / [`replay_query_digests`]) extend
//! the same idea to the read side: after every event, a seeded probe set
//! of `(u, v)` pairs is answered through the healer's view
//! (`distance` / `path` / `stretch` / `same_component` / `degree`) and
//! folded into one digest — pinning the query API's answers along the
//! golden traces next to the existing outcome digests.

use crate::scenario::Scenario;
use fg_core::{
    EngineError, ForgivingGraph, GraphView, PlacementPolicy, QueryOps, ReportDigest, SelfHealer,
};
use fg_dist::DistHealer;
use fg_graph::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Which implementation replays the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayBackend {
    /// The sequential reference engine.
    Engine,
    /// The message-passing protocol.
    Dist,
}

impl ReplayBackend {
    /// Builds a fresh healer over the scenario's initial graph.
    pub fn build(self, sc: &Scenario) -> Box<dyn SelfHealer> {
        match self {
            ReplayBackend::Engine => {
                Box::new(ForgivingGraph::from_graph(&sc.initial).expect("fresh G0 from trace"))
            }
            ReplayBackend::Dist => Box::new(DistHealer::from_graph(
                &sc.initial,
                PlacementPolicy::Adjacent,
            )),
        }
    }
}

/// Replays `sc` through `backend` and returns one outcome digest per
/// event.
///
/// # Errors
///
/// Propagates the first [`EngineError`] — scenario traces are legal by
/// construction, so an error indicates a healer bug.
pub fn replay_digests(sc: &Scenario, backend: ReplayBackend) -> Result<Vec<u64>, EngineError> {
    let mut healer = backend.build(sc);
    sc.events
        .iter()
        .map(|event| healer.apply_event(event).map(|o| o.digest()))
        .collect()
}

/// One stable digest of the query API's answers on `view`, for a probe
/// set derived deterministically from `seed`, the view's epoch, and the
/// node universe. Probes cover live *and* dead ids (dead endpoints must
/// answer `None`); per pair the fold covers `distance`, `path` length
/// and validity, `stretch` bits, `same_component`, and `degree`.
pub fn query_digest(view: &impl GraphView, seed: u64, probes: usize) -> u64 {
    let n = view.ghost().nodes_ever().max(1) as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ view.epoch().wrapping_mul(0x9e37_79b9));
    let mut digest = ReportDigest::new().word(view.epoch()).word(u64::from(n));
    for _ in 0..probes {
        let u = NodeId::new(rng.gen_range(0..n));
        let v = NodeId::new(rng.gen_range(0..n));
        let dist = view.distance(u, v);
        let path = view.path(u, v);
        let path_ok = match (&path, dist) {
            (None, None) => true,
            (Some(p), Some(d)) => {
                p.len() as u32 == d + 1
                    && p.first() == Some(&u)
                    && p.last() == Some(&v)
                    && (p.len() == 1 || p.windows(2).all(|e| view.image().has_edge(e[0], e[1])))
            }
            _ => false,
        };
        digest = digest
            .word(u64::from(u.raw()))
            .word(u64::from(v.raw()))
            .word(dist.map_or(0, |d| u64::from(d) + 1))
            .word(path.map_or(0, |p| p.len() as u64))
            .word(u64::from(path_ok))
            .word(view.stretch(u, v).map_or(0, f64::to_bits))
            .word(u64::from(view.same_component(u, v)))
            .word(view.degree(u).map_or(0, |d| d as u64 + 1));
    }
    digest.value()
}

/// Replays `sc` through `backend` and returns one [`query_digest`] per
/// event, taken on the healer's view right after the event applied.
///
/// # Errors
///
/// Propagates the first [`EngineError`] — scenario traces are legal by
/// construction, so an error indicates a healer bug.
pub fn replay_query_digests(
    sc: &Scenario,
    backend: ReplayBackend,
    seed: u64,
    probes: usize,
) -> Result<Vec<u64>, EngineError> {
    let mut healer = backend.build(sc);
    sc.events
        .iter()
        .map(|event| {
            let _ = healer.apply_event(event)?;
            Ok(query_digest(&healer.view(), seed, probes))
        })
        .collect()
}

/// Renders a digest stream as a digest file: `#`-prefixed header lines
/// for provenance, then one lower-case 16-hex-digit digest per event.
pub fn format_digest_file(header: &str, digests: &[u64]) -> String {
    let mut out = String::new();
    for line in header.lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    for d in digests {
        out.push_str(&format!("{d:016x}\n"));
    }
    out
}

/// Parses a digest file produced by [`format_digest_file`].
///
/// # Errors
///
/// The first line that is neither blank, a `#` comment nor a hex digest,
/// by number.
pub fn parse_digest_file(text: &str) -> Result<Vec<u64>, String> {
    text.lines()
        .enumerate()
        .map(|(k, l)| (k + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .map(|(k, l)| {
            u64::from_str_radix(l, 16).map_err(|_| format!("line {k}: {l:?} is not a digest"))
        })
        .collect()
}

/// The first drift between a replayed digest stream and its recorded
/// reference, if any: `(index, expected, got)`. A length mismatch
/// reports at the shorter stream's end with `0` standing in for the
/// missing side.
pub fn first_digest_drift(expected: &[u64], got: &[u64]) -> Option<(usize, u64, u64)> {
    for (i, (e, g)) in expected.iter().zip(got.iter()).enumerate() {
        if e != g {
            return Some((i, *e, *g));
        }
    }
    match expected.len().cmp(&got.len()) {
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Less => Some((expected.len(), 0, got[expected.len()])),
        std::cmp::Ordering::Greater => Some((got.len(), expected[got.len()], 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::scenario;

    #[test]
    fn digest_file_roundtrips() {
        let digests = vec![0, 1, u64::MAX, 0xdead_beef];
        let text = format_digest_file("churn n=24\nseed 7", &digests);
        assert!(text.starts_with("# churn n=24\n# seed 7\n"));
        assert_eq!(parse_digest_file(&text), Ok(digests));
        let bad = parse_digest_file("# header\n00ff\n\n[workspace]\n");
        assert_eq!(bad, Err("line 4: \"[workspace]\" is not a digest".into()));
    }

    #[test]
    fn drift_detection_covers_divergence_and_truncation() {
        assert_eq!(first_digest_drift(&[1, 2, 3], &[1, 2, 3]), None);
        assert_eq!(first_digest_drift(&[1, 2, 3], &[1, 9, 3]), Some((1, 2, 9)));
        assert_eq!(first_digest_drift(&[1, 2], &[1, 2, 3]), Some((2, 0, 3)));
        assert_eq!(first_digest_drift(&[1, 2, 3], &[1, 2]), Some((2, 3, 0)));
    }

    #[test]
    fn engine_and_dist_digest_streams_agree() {
        let sc = scenario("churn", 20, 60, 11);
        let engine = replay_digests(&sc, ReplayBackend::Engine).expect("engine replay");
        assert_eq!(engine.len(), 60);
        let dist = replay_digests(&sc, ReplayBackend::Dist).expect("dist replay");
        assert_eq!(first_digest_drift(&engine, &dist), None);
    }

    #[test]
    fn query_digest_streams_agree_across_backends() {
        let sc = scenario("churn", 20, 50, 9);
        let engine = replay_query_digests(&sc, ReplayBackend::Engine, 0xfade, 4).expect("engine");
        assert_eq!(engine.len(), 50);
        let dist = replay_query_digests(&sc, ReplayBackend::Dist, 0xfade, 4).expect("dist");
        assert_eq!(first_digest_drift(&engine, &dist), None);
        // Different probe seeds genuinely probe different pairs.
        let other = replay_query_digests(&sc, ReplayBackend::Engine, 0xbeef, 4).expect("engine");
        assert_ne!(engine, other);
    }
}
