//! Throughput — the in-process write-path profiler over the
//! ScenarioRunner workload registry.
//!
//! Replays named adversarial workloads (default: the 50k-event `churn`
//! trace the perf trajectory tracks) through the sequential engine and
//! optionally the distributed protocol, in timed batches, publishing
//! each batch's snapshot as the server does (advancing the last
//! `FrozenView`, timed apart as `publish_seconds`), and writes the
//! machine-readable report consumed by CI (`BENCH_throughput.json`).
//!
//! Flags (all optional): `--workloads a,b,c`, `--n <initial size>`,
//! `--events <count>`, `--batch <size>`, `--backend engine|dist|both`,
//! `--profile 1` (per-phase write wall times — insert/gather/strip/
//! plan/merge — and their coverage of the ingestion wall, into a
//! `profile` JSON section), plus the shared `--seed` / `--scale` /
//! `--json <path>`. `--help` prints usage; an unknown workload name is
//! an input error (exit 2 with usage), found before the run.
//! Served reads and the durable write path are measured end to end by
//! the repo benchmark (`perfbench`: `read-serve`, `write-ack`), not here.

use fg_bench::json::Json;
use fg_bench::{scenario, write_artifact, BenchArgs, RunResult, Scenario, ScenarioRunner};
use fg_core::{ForgivingGraph, PhaseTimes, PlacementPolicy, SelfHealer};
use fg_dist::DistHealer;
use fg_metrics::{f2, Table};

/// Everything one backend replay produced: the result and the
/// per-phase wall times (`--profile`).
struct BackendRun {
    result: RunResult,
    phases: Option<PhaseTimes>,
}

/// One backend replay: with `profile` on, the healer accumulates
/// per-phase wall times while it runs (healers without a phase structure
/// return `None` and are skipped in the profile section).
fn run_backend(
    runner: &ScenarioRunner,
    sc: &Scenario,
    healer: &mut dyn SelfHealer,
    profile: bool,
) -> BackendRun {
    if profile {
        healer.enable_profiling();
    }
    BackendRun {
        result: runner.run(sc, healer).expect("scenario traces are legal"),
        phases: healer.phase_times(),
    }
}

/// The `--profile` JSON entry for one run: write-side phase seconds and
/// how much of the ingestion wall they cover.
fn profile_json(run: &BackendRun) -> Option<Json> {
    let t = run.phases?;
    let write = Json::obj()
        .field("insert_seconds", Json::Float(t.insert))
        .field("gather_seconds", Json::Float(t.gather))
        .field("strip_seconds", Json::Float(t.strip))
        .field("plan_seconds", Json::Float(t.plan))
        .field("merge_seconds", Json::Float(t.merge))
        .field("total_phase_seconds", Json::Float(t.total()))
        .field("wall_seconds", Json::Float(run.result.wall_seconds))
        .field(
            "coverage",
            Json::Float(fg_bench::rate(t.total(), run.result.wall_seconds)),
        );
    Some(
        Json::obj()
            .field("scenario", Json::str(&run.result.scenario))
            .field("backend", Json::str(&run.result.backend))
            .field("write", write),
    )
}

fn main() {
    let args = BenchArgs::parse(&["workloads", "n", "events", "batch", "backend", "profile"]);
    let seed = args.seed(42);
    let n = args.scale_n(args.get("n", 1024usize));
    let events = args.get("events", 50_000usize);
    let batch = args.get("batch", 256usize);
    let backend = args.get("backend", "engine".to_string());
    if !["engine", "dist", "both"].contains(&backend.as_str()) {
        args.fail(&format!(
            "unknown --backend {backend:?}; expected engine, dist or both"
        ));
    }
    let spec = args.get("workloads", "churn".to_string());
    let names: Vec<&str> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    args.check_workloads(&names);
    let json_path = args.json_path().unwrap_or("BENCH_throughput.json");
    let host_cpus = fg_bench::host_cpus();
    let profile = args.get("profile", 0usize) != 0;

    let runner = ScenarioRunner::new(batch);
    let mut table = Table::new(
        &format!("Throughput — ScenarioRunner, n={n}, {events} events, batch {batch}"),
        [
            "workload",
            "backend",
            "events",
            "deletes",
            "wall s",
            "events/s",
            "mean batch ms",
            "max batch ms",
            "final nodes",
        ],
    );
    let mut results: Vec<BackendRun> = Vec::new();
    for name in names {
        let sc = scenario(name, n, events, seed);
        if backend == "engine" || backend == "both" {
            let mut fg = ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
            results.push(run_backend(&runner, &sc, &mut fg, profile));
        }
        if backend == "dist" || backend == "both" {
            let mut dist = DistHealer::from_graph(&sc.initial, PlacementPolicy::Adjacent);
            results.push(run_backend(&runner, &sc, &mut dist, profile));
        }
    }
    for run in &results {
        let result = &run.result;
        table.push_row([
            result.scenario.clone(),
            result.backend.clone(),
            result.events.to_string(),
            result.deletes.to_string(),
            format!("{:.3}", result.wall_seconds),
            format!("{:.0}", result.events_per_sec),
            f2(result.mean_batch_ms),
            f2(result.max_batch_ms),
            result.final_nodes.to_string(),
        ]);
    }
    println!("{}", table.to_markdown());

    let mut config = Json::obj()
        .field("n", Json::Int(n as i64))
        .field("events", Json::Int(events as i64))
        .field("batch", Json::Int(batch as i64))
        .field("seed", Json::Int(seed as i64))
        .field("host_cpus", Json::Int(host_cpus as i64));
    if profile {
        config = config.field("profile", Json::Int(1));
    }
    let mut report = Json::obj()
        .field("bench", Json::str("throughput"))
        .field("config", config);
    let profiles: Vec<Json> = results.iter().filter_map(profile_json).collect();
    if !profiles.is_empty() {
        report = report.field("profile", Json::Arr(profiles));
    }
    let report = report.field(
        "results",
        Json::Arr(results.iter().map(|run| run.result.to_json()).collect()),
    );
    write_artifact(json_path, &report);
}
