//! Throughput — end-to-end event-ingestion benchmark over the
//! ScenarioRunner workload registry, optionally serving a mixed
//! read/write query workload.
//!
//! Replays named adversarial workloads (default: the 50k-event `churn`
//! trace the perf trajectory tracks) through the sequential engine and
//! optionally the distributed protocol, in timed batches, and writes the
//! machine-readable report consumed by CI (`BENCH_throughput.json`).
//!
//! With `--queries N` the run becomes a mixed read/write workload: `N`
//! reads are interleaved across the write batches (e.g. `--events 50000
//! --queries 200000` is an 80/20 read/write mix) and answered through
//! the timed served path (one publish per write batch, advancing the
//! last `FrozenView` as the server does, then its CSR kernels), checked
//! against the live `QueryOps` answers, so the JSON records the served
//! `queries_per_sec` and the (hard-gated) zero answer-mismatch count.
//!
//! Flags (all optional): `--workloads a,b,c`, `--n <initial size>`,
//! `--events <count>`, `--batch <size>`, `--backend engine|dist|both`,
//! `--queries <count>` / `--query-mix dist:80,path:10,stretch:10` /
//! `--query-seed <u64>` / `--query-hot <k>` (the mixed read workload),
//! `--profile 1` (per-phase wall times — insert/gather/strip/plan/merge
//! on the write side, freeze/query buckets on the read side —
//! into a `profile` JSON section), plus the shared `--seed` / `--scale` /
//! `--json <path>`. `--help` prints usage; an unknown workload name is
//! an input error (exit 2 with usage), found before the run.
//! The durable write path is measured end to end by the repo benchmark's
//! `write-ack` workload (`perfbench`), not here.

use fg_bench::json::Json;
use fg_bench::{
    scenario, write_artifact, BenchArgs, QueryStats, QueryWorkload, RunResult, Scenario,
    ScenarioRunner,
};
use fg_core::{ForgivingGraph, PhaseTimes, PlacementPolicy, SelfHealer};
use fg_dist::DistHealer;
use fg_metrics::{f2, Table};

/// Everything one backend replay produced: the write-side result, the
/// read-side stats (mixed runs) and the per-phase wall times
/// (`--profile`).
struct BackendRun {
    result: RunResult,
    queries: Option<QueryStats>,
    phases: Option<PhaseTimes>,
}

/// One backend replay: with `profile` on, the healer accumulates
/// per-phase wall times while it runs (healers without a phase structure
/// return `None` and are skipped in the profile section).
fn run_backend(
    runner: &ScenarioRunner,
    sc: &Scenario,
    healer: &mut dyn SelfHealer,
    wl: Option<&QueryWorkload>,
    profile: bool,
) -> BackendRun {
    if profile {
        healer.enable_profiling();
    }
    let (result, queries) = match wl {
        Some(wl) => {
            let mixed = runner
                .run_mixed(sc, healer, wl)
                .expect("scenario traces are legal");
            (mixed.run, Some(mixed.queries))
        }
        None => (
            runner.run(sc, healer).expect("scenario traces are legal"),
            None,
        ),
    };
    BackendRun {
        result,
        queries,
        phases: healer.phase_times(),
    }
}

/// The `--profile` JSON entry for one run: write-side phase seconds (and
/// how much of the ingestion wall they cover) plus the read-side time
/// buckets from the mixed workload.
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
    let mut entry = Json::obj()
        .field("scenario", Json::str(&run.result.scenario))
        .field("backend", Json::str(&run.result.backend))
        .field("write", write);
    if let Some(q) = &run.queries {
        entry = entry.field(
            "read",
            Json::obj()
                .field("freeze_seconds", Json::Float(q.freeze_seconds))
                .field("query_seconds", Json::Float(q.served_seconds)),
        );
    }
    Some(entry)
}

fn main() {
    let args = BenchArgs::parse(&[
        "workloads",
        "n",
        "events",
        "batch",
        "backend",
        "profile",
        "queries",
        "query-mix",
        "query-seed",
        "query-hot",
    ]);
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
    let workload = args.query_workload(seed.wrapping_add(0x9e37));
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
    let mut query_table = Table::new(
        "Mixed read/write — served (publish + FrozenView kernels)",
        [
            "workload",
            "backend",
            "queries",
            "mix",
            "served q/s",
            "mismatches",
        ],
    );
    let mut results: Vec<BackendRun> = Vec::new();
    for name in names {
        let sc = scenario(name, n, events, seed);
        let mut runs: Vec<BackendRun> = Vec::new();
        if backend == "engine" || backend == "both" {
            let mut fg = ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
            runs.push(run_backend(
                &runner,
                &sc,
                &mut fg,
                workload.as_ref(),
                profile,
            ));
        }
        if backend == "dist" || backend == "both" {
            let mut dist = DistHealer::from_graph(&sc.initial, PlacementPolicy::Adjacent);
            runs.push(run_backend(
                &runner,
                &sc,
                &mut dist,
                workload.as_ref(),
                profile,
            ));
        }

        for run in runs {
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
            if let Some(q) = &run.queries {
                assert_eq!(
                    q.mismatches, 0,
                    "{name}/{}: served reads diverged from the live answers",
                    result.backend
                );
                query_table.push_row([
                    result.scenario.clone(),
                    result.backend.clone(),
                    q.queries.to_string(),
                    q.mix.clone(),
                    format!("{:.0}", q.served_qps),
                    q.mismatches.to_string(),
                ]);
            }
            results.push(run);
        }
    }
    println!("{}", table.to_markdown());
    if workload.is_some() {
        println!("{}", query_table.to_markdown());
    }

    let mut config = Json::obj()
        .field("n", Json::Int(n as i64))
        .field("events", Json::Int(events as i64))
        .field("batch", Json::Int(batch as i64))
        .field("seed", Json::Int(seed as i64))
        .field("host_cpus", Json::Int(host_cpus as i64));
    if profile {
        config = config.field("profile", Json::Int(1));
    }
    if let Some(wl) = &workload {
        config = config
            .field("queries", Json::Int(wl.queries as i64))
            .field("query_mix", Json::str(wl.mix.spec()))
            .field("query_seed", Json::Int(wl.seed as i64))
            .field("query_hot", Json::Int(wl.hot as i64));
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
        Json::Arr(
            results
                .iter()
                .map(|run| {
                    let mut obj = run.result.to_json();
                    if let Some(q) = &run.queries {
                        obj = obj.field("queries", q.to_json());
                    }
                    obj
                })
                .collect(),
        ),
    );
    write_artifact(json_path, &report);
}
