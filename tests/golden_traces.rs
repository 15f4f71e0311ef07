//! Golden-trace regression corpus: three small canonical traces (churn,
//! hub-cascade, partition-then-heal) live under `tests/golden/` next to
//! the digest stream of their per-event typed outcomes (one stable
//! [`fg_core::ReportDigest`] per event, as written by
//! `fg_bench::replay::format_digest_file`).
//!
//! Any drift — a different report for any event, a missing event, an
//! extra event — fails the replay test with the exact event index. The
//! digests are environment-independent (explicit FNV-1a, no `std::hash`),
//! so a failure here is always a *behaviour* change. If the change is
//! intentional, regenerate the corpus and review the new files in the
//! diff:
//!
//! ```text
//! cargo test -p forgiving-graph --test golden_traces -- --ignored
//! ```
//!
//! [`fg_core::ReportDigest`]: forgiving_graph::core::ReportDigest

use forgiving_graph::bench::replay::{
    first_digest_drift, format_digest_file, parse_digest_file, replay_digests,
    replay_query_digests, ReplayBackend,
};
use forgiving_graph::bench::{scenario, Scenario};
use forgiving_graph::core::{PlacementPolicy, ReportDigest, SelfHealer};
use forgiving_graph::dist::DistHealer;
use std::path::PathBuf;

/// The corpus: `(workload, n, events, seed)` — small enough to replay in
/// milliseconds, varied enough to exercise churn, targeted hub kills and
/// partition healing.
const CORPUS: &[(&str, usize, usize, u64)] = &[
    ("churn", 24, 120, 7),
    ("hub-cascade", 24, 120, 7),
    ("partition-then-heal", 24, 120, 7),
];

/// Probe-set parameters for the pinned query digests (`*.queries`
/// files): the seed and pairs-per-event of
/// [`replay_query_digests`]'s deterministic sampler.
const QUERY_SEED: u64 = 0xfade;
const QUERY_PROBES: usize = 4;

fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/umbrella; the corpus lives at the
    // repository root next to this test's source.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn load(name: &str) -> (Scenario, Vec<u64>) {
    let dir = golden_dir();
    let trace = std::fs::read_to_string(dir.join(format!("{name}.trace")))
        .unwrap_or_else(|e| panic!("missing golden trace {name}.trace: {e}"));
    let digests = std::fs::read_to_string(dir.join(format!("{name}.digests")))
        .unwrap_or_else(|e| panic!("missing golden digests {name}.digests: {e}"));
    (
        Scenario::read_trace(name, &trace).expect("golden trace parses"),
        parse_digest_file(&digests).expect("golden digest file parses"),
    )
}

#[test]
fn golden_corpus_matches_engine_replay() {
    for &(name, _, events, _) in CORPUS {
        let (sc, recorded) = load(name);
        assert_eq!(sc.events.len(), events, "{name}: trace truncated");
        assert_eq!(recorded.len(), events, "{name}: digest file truncated");
        let replayed = replay_digests(&sc, ReplayBackend::Engine)
            .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
        if let Some((index, want, got)) = first_digest_drift(&recorded, &replayed) {
            panic!(
                "{name}: digest drift at event {index} (recorded {want:016x}, got {got:016x}) — \
                 a per-event report changed; if intentional, regenerate via \
                 `cargo test -p forgiving-graph --test golden_traces -- --ignored` \
                 and review the diff"
            );
        }
    }
}

#[test]
fn golden_corpus_matches_distributed_replay() {
    // The same digests through the protocol — the corpus also pins the
    // cross-implementation convergence contract.
    for &(name, _, _, _) in CORPUS {
        let (sc, recorded) = load(name);
        let replayed = replay_digests(&sc, ReplayBackend::Dist)
            .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
        assert_eq!(
            first_digest_drift(&recorded, &replayed),
            None,
            "{name} drifted from the golden digests"
        );
    }
}

/// One digest per corpus trace of every Lemma 4 [`RepairCost`] the
/// protocol records along it, in order. The `.digests` files pin only
/// the structural reports; these pin how many messages, rounds and bits
/// each repair took.
///
/// [`RepairCost`]: forgiving_graph::dist::RepairCost
const REPAIR_COST_DIGESTS: &[(&str, u64)] = &[
    ("churn", 0x228a_9552_be63_7073),
    ("hub-cascade", 0x21d9_41d9_8860_1bfb),
    ("partition-then-heal", 0x5ee1_ac03_efcf_5561),
];

fn repair_cost_digest(sc: &Scenario) -> u64 {
    let mut dist = DistHealer::from_graph(&sc.initial, PlacementPolicy::Adjacent);
    for event in &sc.events {
        let _ = SelfHealer::apply_event(&mut dist, event).expect("legal trace");
    }
    dist.costs()
        .iter()
        .fold(
            ReportDigest::new().word(dist.costs().len() as u64),
            |d, c| {
                d.word(c.victim_degree as u64)
                    .word(c.messages)
                    .word(u64::from(c.rounds))
                    .word(c.bits)
                    .word(c.max_message_bits)
                    .word(c.nodes_ever as u64)
            },
        )
        .value()
}

#[test]
fn golden_corpus_pins_distributed_repair_costs() {
    for &(name, want) in REPAIR_COST_DIGESTS {
        let (sc, _) = load(name);
        let got = repair_cost_digest(&sc);
        assert_eq!(
            got, want,
            "{name}: Lemma 4 repair costs drifted (got {got:#018x}) — a repair now sends a \
             different number of messages, rounds or bits"
        );
    }
}

#[test]
fn golden_files_carry_provenance_headers() {
    for &(name, _, _, _) in CORPUS {
        for ext in ["digests", "queries"] {
            let text = std::fs::read_to_string(golden_dir().join(format!("{name}.{ext}")))
                .expect("golden file");
            assert!(
                text.starts_with("# "),
                "{name}.{ext} lost its provenance header"
            );
        }
    }
}

fn load_queries(name: &str) -> (Scenario, Vec<u64>) {
    let dir = golden_dir();
    let trace = std::fs::read_to_string(dir.join(format!("{name}.trace")))
        .unwrap_or_else(|e| panic!("missing golden trace {name}.trace: {e}"));
    let digests = std::fs::read_to_string(dir.join(format!("{name}.queries")))
        .unwrap_or_else(|e| panic!("missing golden query digests {name}.queries: {e}"));
    (
        Scenario::read_trace(name, &trace).expect("golden trace parses"),
        parse_digest_file(&digests).expect("golden digest file parses"),
    )
}

#[test]
fn golden_query_answers_match_engine_replay() {
    // The read side is pinned alongside the outcome digests: after
    // every event, a seeded probe set's distance/path/stretch/
    // component/degree answers fold into one digest per event. Any
    // change to what the query API answers on these traces fails here
    // with the exact event index.
    for &(name, _, events, _) in CORPUS {
        let (sc, recorded) = load_queries(name);
        assert_eq!(recorded.len(), events, "{name}: query digests truncated");
        let replayed = replay_query_digests(&sc, ReplayBackend::Engine, QUERY_SEED, QUERY_PROBES)
            .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
        if let Some((index, want, got)) = first_digest_drift(&recorded, &replayed) {
            panic!(
                "{name}: query digest drift at event {index} (recorded {want:016x}, got \
                 {got:016x}) — a query answer changed; if intentional, regenerate via \
                 `cargo test -p forgiving-graph --test golden_traces -- --ignored` \
                 and review the diff"
            );
        }
    }
}

#[test]
fn golden_query_answers_match_distributed_replay() {
    for &(name, _, _, _) in CORPUS {
        let (sc, recorded) = load_queries(name);
        let replayed = replay_query_digests(&sc, ReplayBackend::Dist, QUERY_SEED, QUERY_PROBES)
            .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
        assert_eq!(
            first_digest_drift(&recorded, &replayed),
            None,
            "{name} drifted from the golden query digests"
        );
    }
}

/// Regenerates the whole corpus in place. Ignored by default — run
/// explicitly (see module docs) after an intentional behaviour change,
/// then commit the updated files.
#[test]
#[ignore = "regenerates tests/golden/ in place; run explicitly after intentional changes"]
fn regenerate_golden_corpus() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("creating tests/golden");
    for &(name, n, events, seed) in CORPUS {
        let sc = scenario(name, n, events, seed);
        let digests = replay_digests(&sc, ReplayBackend::Engine).expect("engine replay");
        let header = format!(
            "golden trace: workload {name}, n {n}, events {events}, seed {seed}\n\
             regenerate: cargo test -p forgiving-graph --test golden_traces -- --ignored"
        );
        std::fs::write(dir.join(format!("{name}.trace")), sc.to_trace()).expect("write trace");
        std::fs::write(
            dir.join(format!("{name}.digests")),
            format_digest_file(&header, &digests),
        )
        .expect("write digests");
        let queries = replay_query_digests(&sc, ReplayBackend::Engine, QUERY_SEED, QUERY_PROBES)
            .expect("engine query replay");
        let query_header = format!(
            "golden query digests: workload {name}, n {n}, events {events}, seed {seed}, \
             probe seed {QUERY_SEED:#x}, {QUERY_PROBES} pairs/event\n\
             regenerate: cargo test -p forgiving-graph --test golden_traces -- --ignored"
        );
        std::fs::write(
            dir.join(format!("{name}.queries")),
            format_digest_file(&query_header, &queries),
        )
        .expect("write query digests");
        eprintln!("regenerated {name}: {events} events");
    }
}
