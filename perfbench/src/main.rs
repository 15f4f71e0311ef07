//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints its workload record and any correctness
//! failures, and ends with one JSON result line. Exits nonzero when the
//! correctness gate fails or the arguments are wrong.

#![forbid(unsafe_code)]

use perfbench::{result_json, run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <read-serve|write-ack|mixed-replica|heal-replay> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let scratch =
        PathBuf::from(".bench_tmp").join(format!("{}-{}", workload.name(), std::process::id()));
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        tiny: false,
        corrupt: None,
        scratch,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.scratch.display());
        return ExitCode::from(2);
    }
    let report = run(&cfg);
    // Stores live only for the run.
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let _ = std::fs::remove_dir(".bench_tmp");

    for (key, value) in &report.record {
        println!("# {key}: {value}");
    }
    let mut metrics = report.metrics.clone();
    metrics.sort_by(|a, b| a.0.cmp(b.0));
    for (name, value, unit) in &metrics {
        println!("# {name} = {value:.3} {unit}");
    }
    for problem in report.problems.iter().take(20) {
        eprintln!("GATE: {problem}");
    }
    if report.problems.len() > 20 {
        eprintln!("GATE: ... {} more", report.problems.len() - 20);
    }
    println!("{}", result_json(&report, cfg.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
