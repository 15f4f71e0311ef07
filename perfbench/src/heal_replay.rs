//! `heal-replay`: the standard churn trace replayed in-process through
//! the engine (`ForgivingGraph`) and the message-passing protocol
//! (`DistHealer`, one thread) in lockstep, batch by batch, with every
//! outcome digest compared across the two. No socket, no disk. The
//! seed places the batch boundaries (the chain is batching-invariant).

use crate::stats::Samples;
use crate::{layers, read_serve, timed_setup, Config, Corrupt, Report, SETUP_REPS_FAST};
use fg_core::{ForgivingGraph, NetworkEvent, PlacementPolicy, SelfHealer};
use fg_dist::DistHealer;
use std::time::Instant;

/// Events per `apply_batch` call after the seeded first batch; one op
/// is one batch through both backends.
pub const BATCH: usize = 32;

/// The trace cut into batches: a first batch of `1 + seed % BATCH`
/// events, then `BATCH` at a time.
fn batches(events: &[NetworkEvent], seed: u64) -> Vec<&[NetworkEvent]> {
    let first = (1 + (seed % BATCH as u64) as usize).min(events.len());
    let (head, rest) = events.split_at(first);
    std::iter::once(head).chain(rest.chunks(BATCH)).collect()
}

/// Per-backend timings of one lockstep replay.
#[derive(Default, Clone)]
struct Replay {
    both: Samples,
    engine: Samples,
    /// fg-dist nanoseconds and events per batch, in replay order.
    dist: Vec<(u64, usize)>,
    mismatches: u64,
}

fn replay(
    engine: &mut ForgivingGraph,
    dist: &mut DistHealer,
    batches: &[&[NetworkEvent]],
    corrupt: Option<Corrupt>,
    report: &mut Report,
) -> Replay {
    let mut out = Replay::default();
    let mut applied = 0usize;
    for (b, chunk) in batches.iter().enumerate() {
        let started = Instant::now();
        let by_engine = engine.apply_batch(chunk);
        let engine_done = Instant::now();
        let by_dist = dist.apply_batch(chunk);
        let dist_done = Instant::now();
        out.engine.push(engine_done - started);
        let dist_ns = u64::try_from((dist_done - engine_done).as_nanos()).unwrap_or(u64::MAX);
        out.dist.push((dist_ns, chunk.len()));
        out.both.push(dist_done - started);
        match (by_engine, by_dist) {
            (Ok(e), Ok(d)) => {
                for (i, (x, y)) in e.outcomes.iter().zip(&d.outcomes).enumerate() {
                    let flip = u64::from(b == 0 && i == 0 && corrupt.is_some());
                    if x.digest() ^ flip != y.digest() {
                        out.mismatches += 1;
                        report.problem(format!(
                            "event {} heals differently: engine {:016x}, fg-dist {:016x}",
                            applied + i,
                            x.digest() ^ flip,
                            y.digest()
                        ));
                    }
                }
            }
            _ => {
                out.mismatches += chunk.len() as u64;
                report.problem(format!("batch {b} failed to apply"));
            }
        }
        applied += chunk.len();
    }
    out
}

/// Mean fg-dist microseconds per event over some batches.
fn dist_us_per_event(batches: &[(u64, usize)]) -> f64 {
    let ns: u64 = batches.iter().map(|&(ns, _)| ns).sum();
    let events: usize = batches.iter().map(|&(_, n)| n).sum();
    ns as f64 / events.max(1) as f64 / 1e3
}

pub fn run(cfg: &Config, report: &mut Report) {
    let (n, events) = read_serve::churn_size(cfg.tiny);
    let ((mut engine, mut dist, sc), setup_s) = timed_setup(SETUP_REPS_FAST, |_| {
        let sc = fg_bench::scenario("churn", n, events, crate::SNAPSHOT_SEED);
        (
            ForgivingGraph::from_graph(&sc.initial).expect("churn G0 is tombstone-free"),
            DistHealer::from_graph_threaded(&sc.initial, PlacementPolicy::Adjacent, 1),
            sc,
        )
    });
    report.metric("setup_s", setup_s, "s");
    let cut = batches(&sc.events, cfg.seed);
    report.note("nodes_initial", sc.initial.nodes_ever());
    report.note("events", sc.events.len());
    report.note("deletions", sc.deletions());
    report.note("flush_policy", "none (in-process, no store)");
    report.note(
        "load",
        format!(
            "lockstep apply_batch: first batch {} events, then {BATCH}; fg-dist threads 1",
            cut.first().map_or(0, |b| b.len())
        ),
    );

    let profiled_twin = cfg.trace.then(|| {
        let mut twin = engine.clone();
        twin.enable_profiling();
        twin
    });
    // Replay the whole trace, from fresh healers, until the run's time is
    // used; the first replay also feeds the per-layer figures.
    let fresh_engine = engine.clone();
    let started = Instant::now();
    let run = replay(&mut engine, &mut dist, &cut, cfg.corrupt, report);
    let mut both = run.both.clone();
    let mut engine_ns = run.engine.sum_ns();
    let mut dist_ns = run.dist.iter().map(|&(ns, _)| ns as f64).sum::<f64>();
    let mut replays = 1usize;
    let mut mismatches = run.mismatches;
    while started.elapsed().as_secs_f64() < cfg.seconds {
        engine = fresh_engine.clone();
        dist = DistHealer::from_graph_threaded(&sc.initial, PlacementPolicy::Adjacent, 1);
        let again = replay(&mut engine, &mut dist, &cut, None, report);
        both.extend(&again.both);
        engine_ns += again.engine.sum_ns();
        dist_ns += again.dist.iter().map(|&(ns, _)| ns as f64).sum::<f64>();
        mismatches += again.mismatches;
        replays += 1;
    }
    let healed = (sc.events.len() * replays) as f64;
    report.metric("ops_per_s", healed / (both.sum_ns() / 1e9).max(1e-9), "1/s");
    report.metric("op_p50_us", both.p50_us(), "us");
    report.metric("op_p90_us", both.quantile_ns(0.90) / 1e3, "us");
    report.note("p99_us", both.p99_us());
    report.note("replays", replays);
    report.note("batch_samples", both.len());
    report.note("nodes_ever", engine.ghost().nodes_ever());
    report.note("alive", engine.image().node_count());
    report.note("ghost_edges", engine.ghost().edge_count());
    let engine_rate = healed / (engine_ns / 1e9).max(1e-9);
    let dist_rate = healed / (dist_ns / 1e9).max(1e-9);
    report.metric("engine.events_per_s", engine_rate, "1/s");
    report.metric("dist.events_per_s", dist_rate, "1/s");
    if engine.epoch() != dist.epoch() {
        report.problem("engine and fg-dist end at different epochs");
    }

    if let Some(mut twin) = profiled_twin {
        // The profiler is the engine's own tracing: its cost is the
        // difference between an engine-only replay with it and one
        // without it.
        let mut plain = fresh_engine;
        let engine_only = |healer: &mut ForgivingGraph, report: &mut Report| {
            let started = Instant::now();
            if cut.iter().any(|chunk| healer.apply_batch(chunk).is_err()) {
                report.problem("engine-only replay failed");
            }
            started.elapsed().as_secs_f64()
        };
        let plain_s = engine_only(&mut plain, report);
        let traced_s = engine_only(&mut twin, report);
        layers::engine_metrics(&twin, traced_s, sc.events.len(), report);
        report.metric(
            "trace.overhead_ops_frac",
            1.0 - plain_s / traced_s.max(1e-9),
            "ratio",
        );
        let tenth = (run.dist.len() / 10).max(1);
        report.metric(
            "dist.us_per_event_first_tenth",
            dist_us_per_event(&run.dist[..tenth]),
            "us",
        );
        report.metric(
            "dist.us_per_event_last_tenth",
            dist_us_per_event(&run.dist[run.dist.len() - tenth..]),
            "us",
        );
        let repairs = dist.costs();
        let per_repair = |f: &dyn Fn(&fg_dist::RepairCost) -> f64| {
            repairs.iter().map(f).sum::<f64>() / repairs.len().max(1) as f64
        };
        report.metric(
            "dist.messages_per_delete",
            per_repair(&|c| c.messages as f64),
            "count",
        );
        report.metric(
            "dist.rounds_per_delete",
            per_repair(&|c| f64::from(c.rounds)),
            "count",
        );
    }
    report.attempted = (sc.events.len() * replays) as u64;
    report.failed = mismatches;
}
