//! Smoke test for the `replay_trace` binary's checked-replay paths: the
//! binary must exit **nonzero** when a replay mismatches its reference
//! (it used to print and return success, which made it useless as a CI
//! gate) and zero when every requested check passes. Two more checks
//! drive `throughput`: `--help` must answer with usage, not panic, and
//! an unknown flag must be refused before any run starts.

use fg_bench::replay::{format_digest_file, replay_digests, ReplayBackend};
use fg_bench::scenario;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_replay_trace"))
}

/// Writes a small trace + its true digest file, returning their paths.
fn fixture(tag: &str) -> (std::path::PathBuf, std::path::PathBuf, Vec<u64>) {
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

#[test]
fn passing_checks_exit_zero() {
    let (trace, digest_file, _) = fixture("ok");
    let out = bin()
        .args([trace.to_str().unwrap(), "1"])
        .args(["--verify", "dist"])
        .args(["--expect-digest", digest_file.to_str().unwrap()])
        .output()
        .expect("running replay_trace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "expected success, got {:?}\nstderr: {stderr}",
        out.status
    );
    assert!(stderr.contains("engine == dist"), "stderr: {stderr}");
    assert!(stderr.contains("digests match"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"events\": 40"), "stdout: {stdout}");
}

#[test]
fn digest_drift_exits_nonzero() {
    let (trace, digest_file, mut digests) = fixture("drift");
    // Corrupt one recorded digest: the replay must detect the drift at
    // exactly that event and exit nonzero without printing throughput.
    digests[17] ^= 0xdead_beef;
    std::fs::write(&digest_file, format_digest_file("smoke", &digests)).expect("rewrite");
    let out = bin()
        .args([trace.to_str().unwrap(), "1"])
        .args(["--expect-digest", digest_file.to_str().unwrap()])
        .output()
        .expect("running replay_trace");
    assert_eq!(out.status.code(), Some(2), "drift must exit with status 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("digest drift at event 17"),
        "stderr: {stderr}"
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).is_empty(),
        "a failed check must not publish throughput numbers"
    );
}

#[test]
fn truncated_digest_file_exits_nonzero() {
    let (trace, digest_file, digests) = fixture("short");
    std::fs::write(
        &digest_file,
        format_digest_file("smoke", &digests[..digests.len() - 3]),
    )
    .expect("rewrite");
    let out = bin()
        .args([trace.to_str().unwrap(), "1"])
        .args(["--expect-digest", digest_file.to_str().unwrap()])
        .output()
        .expect("running replay_trace");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flags_are_rejected() {
    // A typoed check flag must fail loudly, not let the gate pass with
    // the check silently skipped.
    let (trace, digest_file, _) = fixture("typo");
    let out = bin()
        .args([trace.to_str().unwrap(), "1"])
        .args(["--expect-digests", digest_file.to_str().unwrap()]) // extra 's'
        .output()
        .expect("running replay_trace");
    assert!(!out.status.success(), "typoed flag must not exit 0");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag --expect-digests"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn digest_out_writes_a_reusable_reference() {
    let (trace, _, digests) = fixture("out");
    let fresh = trace.with_file_name("fresh.digests");
    let out = bin()
        .args([trace.to_str().unwrap(), "1"])
        .args(["--digest-out", fresh.to_str().unwrap()])
        .output()
        .expect("running replay_trace");
    assert!(out.status.success());
    let written = fg_bench::replay::parse_digest_file(
        &std::fs::read_to_string(&fresh).expect("digest-out file"),
    );
    assert_eq!(written, digests);
}

#[test]
fn throughput_help_exits_zero_without_panicking() {
    let out = Command::new(env!("CARGO_BIN_EXE_throughput"))
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
    let dir = std::env::temp_dir().join(format!("fg-unknown-flag-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_throughput"))
        .args([
            "--wal",
            dir.to_str().unwrap(),
            "--n",
            "16",
            "--events",
            "10",
        ])
        .args(["--json", dir.join("t.json").to_str().unwrap()])
        .output()
        .expect("running throughput");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown flag --wal"), "stderr: {stderr}");
    assert!(stderr.contains("usage: throughput"), "stderr: {stderr}");
}
