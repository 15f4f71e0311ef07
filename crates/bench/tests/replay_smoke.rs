//! The fg-bench binaries' command-line contract. `recover_trace` is a CI
//! gate, so it must exit **nonzero** (status 3) when its run drifts
//! from the reference digest stream and zero when every check passes.
//! Bad input never panics: `--help` answers with usage and exit 0, an
//! unknown, missing or unusable flag exits 2 with usage on stderr
//! before the run prints anything, and an output path that cannot be
//! written exits 1 with the error.

use fg_bench::replay::{format_digest_file, replay_digests, ReplayBackend};
use fg_bench::scenario;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const RECOVER_TRACE: &str = env!("CARGO_BIN_EXE_recover_trace");
const REPL_NODE: &str = env!("CARGO_BIN_EXE_repl_node");
const THROUGHPUT: &str = env!("CARGO_BIN_EXE_throughput");

/// Writes a small trace + its true digest file, returning their paths.
fn fixture(tag: &str) -> (PathBuf, PathBuf, Vec<u64>) {
    let dir = std::env::temp_dir().join(format!("fg-replay-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sc = scenario("churn", 16, 40, 5);
    let trace = dir.join("trace.txt");
    std::fs::write(&trace, sc.to_trace()).expect("write trace");
    let digests = replay_digests(&sc, ReplayBackend::Engine).expect("engine replay");
    let digest_file = dir.join("trace.digests");
    std::fs::write(&digest_file, format_digest_file("smoke", &digests)).expect("write digests");
    (trace, digest_file, digests)
}

/// Runs `recover_trace` over `trace` with a truncating crash, gated on
/// `digest_file`.
fn recover(trace: &Path, digest_file: &Path) -> Output {
    Command::new(RECOVER_TRACE)
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--inject", "truncate"])
        .args(["--expect-digest", digest_file.to_str().unwrap()])
        .output()
        .expect("running recover_trace")
}

/// Runs `exe` with `args` and asserts an input error: exit 2, `expected`
/// and the usage line on stderr, no panic, nothing on stdout.
fn refused(exe: &str, args: &[&str], expected: &str) {
    let out = Command::new(exe).args(args).output().expect("running bin");
    let bin = Path::new(exe).file_stem().unwrap().to_string_lossy();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(expected), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(&format!("usage: {bin}")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed results");
}

/// Runs `exe` with `args` and asserts a failed output write: exit 1,
/// `expected` in the error on stderr, no panic.
fn unwritable(exe: &str, args: &[&str], expected: &str) {
    let out = Command::new(exe).args(args).output().expect("running bin");
    let bin = Path::new(exe).file_stem().unwrap().to_string_lossy();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("error: "), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(expected), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

/// A `repl_node` master's command line over a 40-event trace.
fn master_args<'a>(store: &'a Path, ports: &'a str, golden: &'a str) -> Vec<&'a str> {
    let store = store.to_str().unwrap();
    let trace = [
        "--role", "master", "--n", "16", "--events", "40", "--to", "20",
    ];
    let files = ["--dir", store, "--ports", ports, "--golden", golden];
    trace.into_iter().chain(files).collect()
}

#[test]
fn passing_checks_exit_zero() {
    let (trace, digest_file, _) = fixture("ok");
    let out = recover(&trace, &digest_file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}\nstderr: {stderr}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"events\": 40"), "stdout: {stdout}");
    assert!(stdout.contains("\"matched\": true"), "stdout: {stdout}");
}

#[test]
fn digest_drift_exits_nonzero() {
    let (trace, digest_file, mut digests) = fixture("drift");
    // Corrupt one recorded digest: the run must detect the drift at
    // exactly that event and exit 3 without printing its report.
    digests[17] ^= 0xdead_beef;
    std::fs::write(&digest_file, format_digest_file("smoke", &digests)).expect("rewrite");
    let out = recover(&trace, &digest_file);
    assert_eq!(out.status.code(), Some(3), "drift must exit with status 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("digest drift at event 17"), "{stderr}");
    assert!(out.stdout.is_empty(), "a failed check printed its report");
}

#[test]
fn truncated_digest_file_exits_nonzero() {
    let (trace, digest_file, digests) = fixture("short");
    let short = format_digest_file("smoke", &digests[..digests.len() - 3]);
    std::fs::write(&digest_file, short).expect("rewrite");
    let out = recover(&trace, &digest_file);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("digest drift at event 37"), "{stderr}");
}

#[test]
fn unknown_flags_are_rejected() {
    // A typoed check flag must fail loudly, not let the gate pass with
    // the check silently skipped.
    let (trace, digest_file, _) = fixture("typo");
    let (trace, digest_file) = (trace.to_str().unwrap(), digest_file.to_str().unwrap());
    let typo = ["--trace", trace, "--expect-digests", digest_file]; // extra 's'
    refused(RECOVER_TRACE, &typo, "unknown flag --expect-digests");
    let bogus = ["--trace", trace, "--bogus", "1"];
    refused(RECOVER_TRACE, &bogus, "unknown flag --bogus");
}

#[test]
fn bad_input_exits_2_with_usage() {
    let (trace_path, _, _) = fixture("bad");
    let trace = trace_path.to_str().unwrap();
    let missing = std::env::temp_dir().join(format!("fg-no-such-dir-{}", std::process::id()));
    let missing = |file: &str| missing.join(file).to_str().unwrap().to_string();
    refused(REPL_NODE, &["--n", "16"], "--role is required");
    refused(REPL_NODE, &["--role", "leader"], "\"leader\" is not master");
    refused(REPL_NODE, &["--role", "master"], "--dir is required");
    refused(RECOVER_TRACE, &[trace], "expected --flag");
    refused(RECOVER_TRACE, &["--inject", "none"], "--trace is required");
    let melt = ["--trace", trace, "--inject", "melt"];
    refused(RECOVER_TRACE, &melt, "--inject \"melt\"");
    let no_trace = missing("x.trace");
    refused(RECOVER_TRACE, &["--trace", &no_trace], "cannot read");
    // Files that exist but hold something else: a manifest where the
    // trace or the digest file belongs.
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let not_trace = ["--trace", manifest];
    refused(RECOVER_TRACE, &not_trace, "is not a trace: line 1: ");
    let not_digests = ["--trace", trace, "--expect-digest", manifest];
    refused(
        RECOVER_TRACE,
        &not_digests,
        "is not a digest file: line 1: ",
    );
    let e7 = env!("CARGO_BIN_EXE_e7_merge_addition");
    refused(e7, &["--json", &missing("x.json")], "does not exist");
    let trace_out = missing("x.trace");
    let dump = ["--n", "16", "--events", "10", "--trace-out", &trace_out];
    refused(THROUGHPUT, &dump, "--trace-out");
    // The master checks --ports before it creates its store.
    let tmp = trace_path.parent().unwrap();
    let (store, golden) = (tmp.join("master-store"), tmp.join("g.txt"));
    let ports = missing("ports.txt");
    let master = master_args(&store, &ports, golden.to_str().unwrap());
    refused(REPL_NODE, &master, "--ports");
    assert!(!store.exists(), "the master created its store first");
}

#[test]
fn unwritable_outputs_exit_1_without_panicking() {
    // Each path's directory exists, so the parse-time check passes;
    // the write itself fails, because the path is a directory.
    let (trace_path, _, _) = fixture("unwritable");
    let tmp = trace_path.parent().unwrap();
    let json = tmp.join("t.json");
    let json = json.to_str().unwrap();
    let dump = [
        "--n",
        "16",
        "--events",
        "10",
        "--trace-out",
        "/",
        "--json",
        json,
    ];
    unwritable(THROUGHPUT, &dump, "--trace-out /");
    // A master opens both output files before its store.
    let store = tmp.join("master-store");
    let (ports, golden) = (tmp.join("ports.txt"), tmp.join("g.txt"));
    let (ports, golden) = (ports.to_str().unwrap(), golden.to_str().unwrap());
    let tmp = tmp.to_str().unwrap();
    unwritable(REPL_NODE, &master_args(&store, "/", golden), "--ports /");
    assert!(!store.exists(), "the master created its store first");
    unwritable(REPL_NODE, &master_args(&store, ports, tmp), "--golden");
    assert!(!store.exists(), "the master created its store first");
}

#[test]
fn throughput_help_exits_zero_without_panicking() {
    let out = Command::new(THROUGHPUT)
        .arg("--help")
        .output()
        .expect("running throughput");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: throughput"), "stdout: {stdout}");
}

#[test]
fn throughput_refuses_an_unknown_flag() {
    // Should the flag ever be accepted, the run's artifact lands in the
    // temp dir, not in the source tree.
    let json = std::env::temp_dir().join("fg-unknown-flag.json");
    let json = json.to_str().unwrap();
    let args = ["--wal", "dir", "--n", "16", "--json", json];
    refused(THROUGHPUT, &args, "unknown flag --wal");
}
