//! True-positive / allowed-counterpart coverage for every rule: each
//! fixture is analyzed under a synthetic in-zone path and the exact
//! (rule, line) outcome is pinned. The fixtures live under
//! `tests/fixtures/` — a directory both cargo and the tree walker skip,
//! so they are never compiled and never audited as repo code.

use fg_lint::rules;
use fg_lint::{analyze_source, Report};

macro_rules! fixture {
    ($name:literal) => {
        include_str!(concat!("fixtures/", $name))
    };
}

/// The `(rule, line)` pairs of a report's unsuppressed findings.
fn firing_lines(report: &Report) -> Vec<(&'static str, usize)> {
    report.findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn panic_freedom_fires_on_unwrap_in_protocol() {
    let report = analyze_source(
        "crates/serve/src/protocol.rs",
        fixture!("panic_freedom_violation.rs"),
    );
    assert_eq!(firing_lines(&report), vec![("panic-freedom", 2)]);
    assert_eq!(report.findings[0].path, "crates/serve/src/protocol.rs");
}

#[test]
fn panic_freedom_respects_item_zones() {
    // The same unwrap in server.rs is outside the named panic-free
    // items (`parse` is not one of them) — zone scoping keeps it legal.
    let report = analyze_source(
        "crates/serve/src/server.rs",
        fixture!("panic_freedom_violation.rs"),
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn panic_freedom_exempts_test_modules() {
    let report = analyze_source(
        "crates/serve/src/protocol.rs",
        fixture!("panic_freedom_allowed.rs"),
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn panic_freedom_exempts_test_paths() {
    let report = analyze_source(
        "crates/serve/tests/protocol_roundtrip.rs",
        fixture!("panic_freedom_violation.rs"),
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn blessed_io_fires_outside_the_wrappers() {
    let report = analyze_source(
        "crates/serve/src/persist.rs",
        fixture!("blessed_io_violation.rs"),
    );
    assert_eq!(firing_lines(&report), vec![("blessed-io", 5)]);
}

#[test]
fn blessed_io_is_silent_inside_the_wrappers() {
    // Identical raw-I/O shape, but inside fg-store's fsync-aware
    // wrapper module — the blessed path.
    let report = analyze_source(
        "crates/store/src/snapstore.rs",
        fixture!("blessed_io_allowed.rs"),
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn one_frame_codec_fires_outside_the_codec() {
    let report = analyze_source(
        "crates/serve/src/protocol.rs",
        fixture!("one_frame_codec_violation.rs"),
    );
    assert_eq!(firing_lines(&report), vec![("one-frame-codec", 3)]);
}

#[test]
fn one_frame_codec_is_silent_inside_the_codec() {
    // The same hand-rolled frame writer, but in fg-store's codec — the
    // one module that owns the frame layout.
    let report = analyze_source(
        "crates/store/src/codec.rs",
        fixture!("one_frame_codec_allowed.rs"),
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn poison_safe_locks_fires_on_lock_unwrap() {
    let report = analyze_source(
        "crates/serve/src/hub.rs",
        fixture!("poison_safe_locks_violation.rs"),
    );
    assert_eq!(firing_lines(&report), vec![("poison-safe-locks", 4)]);
}

#[test]
fn poison_safe_locks_accepts_recovery_idiom() {
    let report = analyze_source(
        "crates/serve/src/hub.rs",
        fixture!("poison_safe_locks_allowed.rs"),
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn determinism_fires_on_hashmap_in_core() {
    let report = analyze_source(
        "crates/core/src/cache.rs",
        fixture!("determinism_violation.rs"),
    );
    assert_eq!(
        firing_lines(&report),
        vec![("determinism", 1), ("determinism", 4)]
    );
}

#[test]
fn determinism_is_scoped_to_digest_bearing_crates() {
    // The identical source in fg-bench is fine: only fg-core/fg-dist
    // carry the bit-determinism contract.
    let report = analyze_source(
        "crates/bench/src/cache.rs",
        fixture!("determinism_violation.rs"),
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn determinism_honours_reasoned_suppressions() {
    let report = analyze_source(
        "crates/core/src/cache.rs",
        fixture!("determinism_allowed.rs"),
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "determinism");
    assert_eq!(report.suppressed[0].line, 2);
}

#[test]
fn swallowed_results_fires_on_discarded_io() {
    let report = analyze_source(
        "crates/store/src/sweep.rs",
        fixture!("swallowed_results_violation.rs"),
    );
    assert_eq!(firing_lines(&report), vec![("swallowed-results", 2)]);
}

#[test]
fn swallowed_results_exempts_error_propagation() {
    // `let _ = f()?;` discards only the Ok payload — the error still
    // propagates, so there is nothing swallowed.
    let report = analyze_source(
        "crates/store/src/sweep.rs",
        fixture!("swallowed_results_allowed.rs"),
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn bad_suppression_fires_on_reasonless_allow() {
    let report = analyze_source(
        "crates/serve/src/hub.rs",
        fixture!("bad_suppression_violation.rs"),
    );
    assert_eq!(firing_lines(&report), vec![(rules::BAD_SUPPRESSION, 2)]);
    assert!(report.findings[0].message.contains("no reason"));
}

#[test]
fn bad_suppression_accepts_reasoned_used_allow() {
    let report = analyze_source(
        "crates/serve/src/hub.rs",
        fixture!("bad_suppression_allowed.rs"),
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "swallowed-results");
}

#[test]
fn forbid_unsafe_fires_on_a_bare_crate_root() {
    let report = analyze_source(
        "crates/toy/src/lib.rs",
        fixture!("forbid_unsafe_violation.rs"),
    );
    assert_eq!(firing_lines(&report), vec![(rules::FORBID_UNSAFE, 1)]);
}

#[test]
fn forbid_unsafe_accepts_a_pledged_crate_root() {
    let report = analyze_source(
        "crates/toy/src/lib.rs",
        fixture!("forbid_unsafe_allowed.rs"),
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn forbid_unsafe_ignores_a_pledge_in_comments_or_strings() {
    // A commented-out attribute, a doc line quoting it and a string
    // literal whose line begins with it are not the attribute.
    let report = analyze_source(
        "crates/toy/src/lib.rs",
        fixture!("forbid_unsafe_commented_violation.rs"),
    );
    assert_eq!(firing_lines(&report), vec![(rules::FORBID_UNSAFE, 1)]);
}

#[test]
fn forbid_unsafe_cannot_be_suppressed() {
    let source = format!(
        "// fg-lint: allow(forbid-unsafe): trying to dodge the pledge\n{}",
        fixture!("forbid_unsafe_violation.rs")
    );
    let report = analyze_source("crates/toy/src/lib.rs", &source);
    let rules_fired: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    // The violation stands AND the suppression is flagged as unused.
    assert!(
        rules_fired.contains(&rules::FORBID_UNSAFE),
        "{rules_fired:?}"
    );
    assert!(
        rules_fired.contains(&rules::BAD_SUPPRESSION),
        "{rules_fired:?}"
    );
}

#[test]
fn unknown_rule_suppressions_are_findings() {
    let source = "pub fn f() {}\n// fg-lint: allow(no-such-rule): whatever\npub fn g() {}\n";
    let report = analyze_source("crates/serve/src/hub.rs", source);
    assert_eq!(firing_lines(&report), vec![(rules::BAD_SUPPRESSION, 2)]);
    assert!(report.findings[0].message.contains("no-such-rule"));
}

#[test]
fn unused_suppressions_are_findings() {
    let source =
        "// fg-lint: allow(swallowed-results): nothing here actually swallows\npub fn f() {}\n";
    let report = analyze_source("crates/serve/src/hub.rs", source);
    assert_eq!(firing_lines(&report), vec![(rules::BAD_SUPPRESSION, 1)]);
    assert!(report.findings[0].message.contains("suppresses nothing"));
}

#[test]
fn standalone_suppressions_shield_the_next_code_line() {
    let source = "pub fn sweep(path: &std::path::Path) {\n    // fg-lint: allow(swallowed-results): advisory cleanup\n\n    let _ = std::fs::remove_file(path);\n}\n";
    let report = analyze_source("crates/store/src/sweep.rs", source);
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].line, 4);
}

#[test]
fn suppressions_only_shield_their_named_rule() {
    // An allow for the wrong rule does not shield, and is then unused.
    let source = "pub fn sweep(path: &std::path::Path) {\n    // fg-lint: allow(determinism): wrong rule entirely\n    let _ = std::fs::remove_file(path);\n}\n";
    let report = analyze_source("crates/store/src/sweep.rs", source);
    let rules_fired: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert!(
        rules_fired.contains(&"swallowed-results"),
        "{rules_fired:?}"
    );
    assert!(
        rules_fired.contains(&rules::BAD_SUPPRESSION),
        "{rules_fired:?}"
    );
}

#[test]
fn json_artifact_carries_per_rule_counts() {
    let report = analyze_source(
        "crates/core/src/cache.rs",
        fixture!("determinism_allowed.rs"),
    );
    let json = fg_lint::report_to_json(&report);
    assert!(json.contains("\"clean\": true"), "{json}");
    assert!(
        json.contains("\"determinism\": {\"violations\": 0, \"suppressed\": 1}"),
        "{json}"
    );
    // Every known rule appears even at zero, so artifact diffs line up.
    for rule in fg_lint::ALL_RULE_NAMES {
        assert!(
            json.contains(&format!("\"{rule}\"")),
            "{rule} missing: {json}"
        );
    }
}
