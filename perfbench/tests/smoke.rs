//! Every workload at tiny size: the result line carries every named
//! metric, the gate passes on honest runs, and a corrupted stamp or
//! answer is caught.

use perfbench::{result_json, run, Config, Corrupt, Report, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn config(workload: Workload, trace: bool, corrupt: Option<Corrupt>) -> Config {
    let tag = format!(
        "{}-{}-{:?}",
        workload.name(),
        u8::from(trace),
        corrupt.map_or("none".into(), |c| format!("{c:?}"))
    );
    Config {
        workload,
        seed: 7,
        seconds: 0.6,
        trace,
        tiny: true,
        corrupt,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
    }
}

fn run_tiny(workload: Workload, trace: bool, corrupt: Option<Corrupt>) -> Report {
    let cfg = config(workload, trace, corrupt);
    std::fs::create_dir_all(&cfg.scratch).expect("create scratch");
    let report = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    report
}

/// The metric names `BENCHMARK.json` declares in one of its lists.
fn declared(list: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

#[test]
fn declared_metrics_match_the_emitted_ones() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(declared("end_to_end"), e2e);
    assert_eq!(declared("per_layer"), layers);
}

/// The per-layer metrics each workload must measure (nonzero).
fn exercised(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::ReadServe => &[
            "protocol.req_encode_ns",
            "protocol.req_decode_ns",
            "protocol.resp_encode_ns",
            "protocol.resp_decode_ns",
            "protocol.bytes_per_read",
            "snapshot.pin_ns",
            "kernel.dist_ns",
            "kernel.degree_ns",
            "server.read_residual_us",
            "read.coverage",
        ],
        Workload::WriteAck => &[
            "engine.apply_us",
            "engine.coverage",
            "store.log_fsync_us",
            "store.wal_bytes_per_event",
            "snapshot.freeze_image_us",
            "snapshot.freeze_ghost_us",
            "snapshot.freeze_us",
            "snapshot.publish_us",
            "write.coverage",
        ],
        Workload::MixedReplica => &[
            "snapshot.pin_ns",
            "snapshot.freeze_us",
            "write.due_p50_us",
            "repl.lag_p50_us",
            "repl.sync_us",
            "repl.records_per_sync",
            "repl.bytes_per_record",
            "replica.freeze_us",
            "repl.coverage",
        ],
        Workload::HealReplay => &[
            "engine.apply_us",
            "engine.coverage",
            "engine.events_per_s",
            "dist.events_per_s",
            "dist.us_per_event_first_tenth",
            "dist.us_per_event_last_tenth",
            "dist.messages_per_delete",
            "dist.rounds_per_delete",
        ],
    }
}

fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("\": {\"value\"")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains(':'))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_passes_the_gate() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run_tiny(workload, trace, None);
            let name = workload.name();
            assert!(
                report.correct(),
                "{name} trace={trace}: {:?}",
                report.problems
            );
            assert!(report.attempted > 0, "{name}: nothing attempted");
            let line = result_json(&report, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            let wanted = if trace { PER_LAYER } else { END_TO_END };
            let names = metric_names(&line);
            for (metric, _) in wanted {
                assert!(
                    names.iter().any(|n| n == metric),
                    "{name}: {metric} missing in {line}"
                );
            }
            if trace {
                for metric in exercised(workload) {
                    let v = report.value(metric).unwrap_or(0.0);
                    assert!(v > 0.0, "{name}: traced {metric} = {v}");
                }
            } else {
                for (metric, _) in END_TO_END {
                    let v = report.value(metric).unwrap_or(0.0);
                    assert!(v > 0.0, "{name}: {metric} = {v}");
                }
            }
        }
    }
}

#[test]
fn the_gate_catches_a_corrupted_stamp_or_answer() {
    for workload in Workload::ALL {
        for corrupt in [Corrupt::Stamp, Corrupt::Answer] {
            let report = run_tiny(workload, false, Some(corrupt));
            assert!(
                !report.correct() && report.failed > 0,
                "{} missed a corrupted {corrupt:?}",
                workload.name()
            );
            assert!(result_json(&report, false).starts_with("{\"correct\": false"));
        }
    }
}
