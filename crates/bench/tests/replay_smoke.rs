//! The fg-bench binaries' command-line contract. Bad input never
//! panics: `--help` answers with usage and exit 0, an unknown, missing
//! or unusable flag exits 2 with usage on stderr before the run prints
//! anything, and an output path that cannot be written exits 1 with the
//! error.

use std::path::{Path, PathBuf};
use std::process::Command;

const REPL_NODE: &str = env!("CARGO_BIN_EXE_repl_node");
const THROUGHPUT: &str = env!("CARGO_BIN_EXE_throughput");

/// A fresh, empty scratch directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fg-replay-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
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

/// A `repl_node` command line over a 40-event trace, as `role`.
fn node_args<'a>(role: &'a str, store: &'a Path, ports: &'a str, golden: &'a str) -> Vec<&'a str> {
    let store = store.to_str().unwrap();
    let trace = ["--role", role, "--n", "16", "--events", "40", "--to", "20"];
    let files = ["--dir", store, "--ports", ports, "--golden", golden];
    trace.into_iter().chain(files).collect()
}

#[test]
fn bad_input_exits_2_with_usage() {
    let tmp = temp_dir("bad");
    let missing = tmp.join("no-such-dir");
    let missing = |file: &str| missing.join(file).to_str().unwrap().to_string();
    refused(REPL_NODE, &["--n", "16"], "--role is required");
    refused(REPL_NODE, &["--role", "leader"], "\"leader\" is not master");
    refused(REPL_NODE, &["--role", "master"], "--dir is required");
    refused(THROUGHPUT, &["churn"], "expected --flag");
    let e7 = env!("CARGO_BIN_EXE_e7_merge_addition");
    refused(e7, &["--json", &missing("x.json")], "does not exist");
    let bogus = ["--workloads", "churn,bogus", "--n", "16", "--events", "10"];
    refused(THROUGHPUT, &bogus, "unknown workload \"bogus\"");

    // A master checks --ports and its workload before it writes a file.
    let store = tmp.join("store");
    let (ports, golden) = (tmp.join("ports.txt"), tmp.join("g.txt"));
    let (ports, golden) = (ports.to_str().unwrap(), golden.to_str().unwrap());
    let no_dir = missing("ports.txt");
    let master = node_args("master", &store, &no_dir, golden);
    refused(REPL_NODE, &master, "--ports");
    let mut master = node_args("master", &store, ports, golden);
    master.extend(["--workload", "bogus"]);
    refused(REPL_NODE, &master, "unknown workload \"bogus\"");
    let left: Vec<_> = std::fs::read_dir(&tmp).unwrap().collect();
    assert!(left.is_empty(), "the master left {left:?} behind");

    // A replica reads the master's two addresses before it bootstraps,
    // and names the line that is not one; then it opens --golden.
    let replica = node_args("replica", &store, ports, golden);
    refused(REPL_NODE, &replica, "cannot read --ports");
    for (text, expected) in [
        ("", "line 1: \"\""),
        ("127.0.0.1:1\n", "line 2: \"\""),
        ("fgq\nfgr\n", "line 1: \"fgq\" is not"),
        ("127.0.0.1:1\nfgr\n", "line 2: \"fgr\" is not"),
        ("127.0.0.1:1\n127.0.0.1:2\n", "cannot read --golden"),
    ] {
        std::fs::write(ports, text).expect("write ports file");
        refused(REPL_NODE, &replica, expected);
    }
    assert!(!store.exists(), "the replica created its store");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn unwritable_outputs_exit_1_without_panicking() {
    // Each path's directory exists, so the parse-time check passes;
    // the write itself fails, because the path is a directory.
    let tmp = temp_dir("unwritable");
    let run = ["--n", "16", "--events", "10", "--json", "/"];
    unwritable(THROUGHPUT, &run, "writing /");
    // A master opens both output files before its store.
    let store = tmp.join("master-store");
    let (ports, golden) = (tmp.join("ports.txt"), tmp.join("g.txt"));
    let (ports, golden) = (ports.to_str().unwrap(), golden.to_str().unwrap());
    let tmp = tmp.to_str().unwrap();
    let master = |ports, golden| node_args("master", &store, ports, golden);
    unwritable(REPL_NODE, &master("/", golden), "--ports /");
    assert!(!store.exists(), "the master created its store first");
    unwritable(REPL_NODE, &master(ports, tmp), "--golden");
    assert!(!store.exists(), "the master created its store first");
    let _ = std::fs::remove_dir_all(tmp);
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
    // The in-process read mode is gone: its flags are refused, not
    // ignored.
    let args = ["--queries", "8", "--n", "16", "--json", json];
    refused(THROUGHPUT, &args, "unknown flag --queries");
}
