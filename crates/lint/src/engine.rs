//! The analysis engine: applies the rule catalog to lexed sources,
//! honours inline suppressions, and walks the workspace tree.

use crate::lexer::{lex, LexedFile, Suppression};
use crate::rules::{ALL_RULE_NAMES, BAD_SUPPRESSION, FORBID_UNSAFE, RULES};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation (or suppressed would-be violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// Repo-relative, `/`-separated path.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// What happened and why it matters.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// Everything one analysis run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed violations — any entry here is a gate failure.
    pub findings: Vec<Finding>,
    /// Violations silenced by a valid reasoned suppression (the tally
    /// that makes exception drift visible across PRs).
    pub suppressed: Vec<Finding>,
    /// How many files the run looked at.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the tree passes the gate.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `(violations, suppressed)` per rule name, every known rule
    /// present even at zero so artifact diffs line up across PRs.
    pub fn rule_counts(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut counts: BTreeMap<&'static str, (usize, usize)> =
            ALL_RULE_NAMES.iter().map(|&r| (r, (0, 0))).collect();
        for f in &self.findings {
            counts.entry(f.rule).or_default().0 += 1;
        }
        for f in &self.suppressed {
            counts.entry(f.rule).or_default().1 += 1;
        }
        counts
    }

    fn absorb(&mut self, mut other: Report) {
        self.findings.append(&mut other.findings);
        self.suppressed.append(&mut other.suppressed);
        self.files_scanned += other.files_scanned;
    }
}

/// Whether a repo-relative path is test/dev-harness code, exempt from
/// every rule: integration tests, benches, examples, and the lint
/// fixture corpus.
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures")
}

/// Whether a repo-relative path is a first-party crate root that must
/// carry `#![forbid(unsafe_code)]`.
fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || (rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs"))
}

/// Analyzes one source file under its repo-relative path. This is the
/// whole per-file pipeline: lex → pattern rules → suppression
/// resolution → suppression hygiene → crate-root hygiene.
pub fn analyze_source(rel_path: &str, source: &str) -> Report {
    let mut report = Report {
        files_scanned: 1,
        ..Report::default()
    };
    if is_test_path(rel_path) {
        return report;
    }

    let lexed = lex(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let snippet = |line: usize| -> String {
        raw_lines
            .get(line - 1)
            .map_or(String::new(), |l| l.trim().to_string())
    };

    // Which source line each suppression shields (its own line for a
    // trailing comment, the next code-bearing line for a standalone
    // one), plus a used flag for hygiene.
    let mut shields: Vec<(usize, &Suppression, bool)> = lexed
        .suppressions
        .iter()
        .map(|s| (suppression_target(s, &lexed), s, false))
        .collect();

    let mut raw_findings: Vec<Finding> = Vec::new();
    for rule in RULES {
        if !rule.covers_path(rel_path) {
            continue;
        }
        for (idx, line) in lexed.lines.iter().enumerate() {
            let lineno = idx + 1;
            if line.in_test || !rule.covers_line(rel_path, &lexed, lineno) {
                continue;
            }
            let fired = if rule.name == crate::rules::SWALLOWED_RESULTS.name {
                swallowed_result_at(&lexed, idx)
            } else {
                rule.patterns
                    .iter()
                    .find(|p| line.code.contains(*p))
                    .map(|p| (*p).to_string())
            };
            if let Some(pattern) = fired {
                raw_findings.push(Finding {
                    rule: rule.name,
                    path: rel_path.to_string(),
                    line: lineno,
                    snippet: snippet(lineno),
                    message: format!("forbidden pattern `{pattern}` — {}", rule.why),
                });
            }
        }
    }

    // Crate-root hygiene: #![forbid(unsafe_code)] is non-negotiable and
    // cannot be suppressed away (a suppression would defeat the point),
    // but flows through the same shield machinery for uniformity. Only a
    // code line that begins with the attribute counts: a commented-out
    // pledge, a doc mention or a string literal is not one.
    let pledged = lexed
        .lines
        .iter()
        .any(|line| line.code.starts_with("#![forbid(unsafe_code)]"));
    if is_crate_root(rel_path) && !pledged {
        raw_findings.push(Finding {
            rule: FORBID_UNSAFE,
            path: rel_path.to_string(),
            line: 1,
            snippet: snippet(1),
            message: "crate root lacks `#![forbid(unsafe_code)]` — every first-party \
                      crate forbids unsafe so the workspace stays memory-safe by \
                      construction"
                .to_string(),
        });
    }

    // Resolve suppressions.
    for finding in raw_findings {
        let shield = shields.iter_mut().find(|(target, s, _)| {
            *target == finding.line
                && s.rules.iter().any(|r| r == finding.rule)
                && !s.reason.is_empty()
                && finding.rule != FORBID_UNSAFE
        });
        match shield {
            Some((_, _, used)) => {
                *used = true;
                report.suppressed.push(finding);
            }
            None => report.findings.push(finding),
        }
    }

    // Suppression hygiene: every allow must be well-formed (names only
    // known rules, carries a reason) and must have earned its keep.
    for (_, s, used) in &shields {
        let mut problems: Vec<String> = Vec::new();
        if s.rules.is_empty() {
            problems.push("names no rule".to_string());
        }
        for r in &s.rules {
            if !ALL_RULE_NAMES.contains(&r.as_str()) {
                problems.push(format!("references unknown rule `{r}`"));
            }
        }
        if s.reason.is_empty() {
            problems.push("carries no reason — every exception must say why".to_string());
        }
        if problems.is_empty() && !used {
            problems.push(
                "suppresses nothing on its target line — stale allows must be removed".to_string(),
            );
        }
        if !problems.is_empty() {
            report.findings.push(Finding {
                rule: BAD_SUPPRESSION,
                path: rel_path.to_string(),
                line: s.line,
                snippet: snippet(s.line),
                message: format!("malformed suppression ({})", problems.join("; ")),
            });
        }
    }

    report
        .findings
        .sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    report
}

/// The line a suppression shields: its own line when trailing, the
/// next code-bearing line otherwise.
fn suppression_target(s: &Suppression, lexed: &LexedFile) -> usize {
    if s.trailing {
        return s.line;
    }
    lexed
        .lines
        .iter()
        .enumerate()
        .skip(s.line) // 0-based index == s.line is the line after the comment
        .find(|(_, l)| !l.code.trim().is_empty())
        .map_or(s.line, |(idx, _)| idx + 1)
}

/// The swallowed-results matcher: a `let _ =` statement whose RHS makes
/// a call and does not propagate with `?`. The statement is joined
/// across up to 8 lines so multi-line builders are classified by their
/// full text; the finding lands on the `let _ =` line.
fn swallowed_result_at(lexed: &LexedFile, idx: usize) -> Option<String> {
    let code = &lexed.lines[idx].code;
    let at = code.find("let _ =")?;
    // Join the statement through its terminating `;`.
    let mut stmt = String::new();
    for line in lexed.lines.iter().skip(idx).take(8) {
        let piece = if stmt.is_empty() {
            &line.code[at..]
        } else {
            line.code.as_str()
        };
        match piece.find(';') {
            Some(end) => {
                stmt.push_str(&piece[..end]);
                break;
            }
            None => {
                stmt.push_str(piece);
                stmt.push(' ');
            }
        }
    }
    let stmt = stmt.trim_end();
    if !stmt.contains('(') {
        return None; // Not a call — a plain binding discard.
    }
    if stmt.ends_with('?') {
        return None; // `let _ = f()?;` propagates the error; only the Ok
                     // payload is discarded.
    }
    Some("let _ = <fallible call>".to_string())
}

/// Analyzes every first-party `.rs` file under `root` (the repository
/// checkout). `target/`, `vendor/`, hidden directories, and the lint
/// fixture corpus are skipped.
///
/// # Errors
///
/// An I/O failure walking or reading the tree (individual unreadable
/// files fail the run loudly rather than passing silently).
pub fn analyze_tree(root: &Path) -> Result<Report, std::io::Error> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = Report::default();
    for rel in files {
        let source = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        report.absorb(analyze_source(&rel_str, &source));
    }
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), std::io::Error> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}
