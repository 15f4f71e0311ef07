//! Replays a dumped scenario trace (`throughput --trace-out`) and prints
//! one JSON line of throughput numbers — and, when asked to check the
//! replay, **exits nonzero on any mismatch** so CI and scripts can gate
//! on it (a silently-successful mismatch report is worse than a crash).
//!
//! Usage: `replay_trace <trace-file> [runs] [flags]`
//!
//! Flags:
//! * `--verify dist` — additionally replay the trace through the
//!   distributed protocol in lockstep with the engine, comparing the
//!   typed outcome of **every** event; the first report mismatch prints
//!   to stderr and exits with status 1.
//! * `--expect-digest <path>` — compare the engine's per-event outcome
//!   digests against a recorded digest file; the first drift prints to
//!   stderr and exits with status 2.
//! * `--digest-out <path>` — write the engine's digest stream (the format
//!   `--expect-digest` and the golden corpus consume; the digest files
//!   are always the *engine's* reference stream — `--verify dist` is how
//!   the protocol is checked against it).
//!
//! Unknown flags are an error: a gate whose misspelled check silently
//! never runs would pass vacuously.
//!
//! Exit status: 0 = replay ok (and all requested checks passed),
//! 1 = report mismatch between engine and protocol, 2 = digest drift
//! against the recorded file.

use fg_bench::json::Json;
use fg_bench::replay::{
    first_digest_drift, format_digest_file, parse_digest_file, replay_digests,
    verify_engine_vs_dist, ReplayBackend,
};
use fg_bench::Scenario;
use fg_core::ForgivingGraph;
use std::time::Instant;

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut flags: Vec<(String, String)> = Vec::new();
    const KNOWN: &[&str] = &["verify", "expect-digest", "digest-out"];
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            assert!(
                KNOWN.contains(&name),
                "unknown flag --{name}; known: {KNOWN:?}"
            );
            let value = iter
                .next()
                .unwrap_or_else(|| panic!("flag --{name} needs a value"));
            flags.push((name.to_string(), value));
        } else {
            positional.push(arg);
        }
    }
    let flag = |name: &str| {
        flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let path = positional
        .first()
        .cloned()
        .expect("usage: replay_trace <trace-file> [runs] [--verify dist] [--expect-digest f]");
    let runs: usize = positional.get(1).map_or(3, |r| r.parse().expect("runs"));

    let text = std::fs::read_to_string(&path).expect("readable trace file");
    let sc = Scenario::read_trace(&path, &text);

    // Requested checks run before the timing loop: a broken replay must
    // fail loudly, not publish throughput numbers.
    if let Some(backend) = flag("verify") {
        assert_eq!(backend, "dist", "--verify supports exactly: dist");
        match verify_engine_vs_dist(&sc) {
            Ok(events) => eprintln!("verify: {events} events, engine == dist"),
            Err(mismatch) => {
                eprintln!("verify FAILED: {mismatch}");
                std::process::exit(1);
            }
        }
    }
    if flag("expect-digest").is_some() || flag("digest-out").is_some() {
        let digests =
            replay_digests(&sc, ReplayBackend::Engine).expect("legal trace replays cleanly");
        if let Some(out) = flag("digest-out") {
            let header = format!("trace {path}\nevents {}", sc.events.len());
            std::fs::write(out, format_digest_file(&header, &digests))
                .expect("writing --digest-out");
            eprintln!("wrote {} digests to {out}", digests.len());
        }
        if let Some(expect) = flag("expect-digest") {
            let recorded =
                parse_digest_file(&std::fs::read_to_string(expect).expect("readable digest file"));
            if let Some((index, want, got)) = first_digest_drift(&recorded, &digests) {
                eprintln!(
                    "digest drift at event {index}: recorded {want:016x}, replay produced \
                     {got:016x} ({expect})"
                );
                std::process::exit(2);
            }
            eprintln!("digests match {expect} ({} events)", recorded.len());
        }
    }

    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let mut fg = ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
        let start = Instant::now();
        for event in &sc.events {
            fg.apply(event).expect("legal trace event");
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    let line = Json::obj()
        .field("trace", Json::str(&path))
        .field("events", Json::Int(sc.events.len() as i64))
        .field("runs", Json::Int(runs as i64))
        .field("host_cpus", Json::Int(fg_bench::host_cpus() as i64))
        .field("best_wall_seconds", Json::Float(best))
        .field(
            "events_per_sec",
            Json::Float(fg_bench::rate(sc.events.len() as f64, best)),
        );
    println!("{}", line.compact());
}
