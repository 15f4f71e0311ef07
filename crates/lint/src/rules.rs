//! The rule catalog: each rule is a set of substring patterns, a path
//! scope, and (optionally) an item-level zone inside those paths.
//!
//! Every rule here is grounded in a bug this repository actually
//! shipped (or nearly shipped) — DESIGN.md §15 tells each story. Rules
//! match against *blanked* code (see [`crate::lexer`]), never against
//! comments or literal contents, and never against test code.

use crate::lexer::LexedFile;

/// Where a rule looks: any file whose repo-relative path starts with
/// one of `prefixes`. When `items` is non-empty the rule only fires
/// inside the named `fn`s/`mod`s of that file (zone scoping).
#[derive(Debug, Clone, Copy)]
pub struct Zone {
    /// Repo-relative path prefix, `/`-separated (e.g.
    /// `crates/serve/src/protocol.rs` or `crates/core/src/`).
    pub path: &'static str,
    /// Named items the zone is confined to; empty = the whole file.
    pub items: &'static [&'static str],
}

/// One forbidden-pattern rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule name — what `fg-lint: allow(<name>): <reason>`
    /// suppressions refer to.
    pub name: &'static str,
    /// Substring patterns that constitute a violation when they appear
    /// in blanked, non-test code inside the rule's zones.
    pub patterns: &'static [&'static str],
    /// Where the rule applies.
    pub zones: &'static [Zone],
    /// Paths inside the zones that are exempt (the blessed modules).
    pub allowed_paths: &'static [&'static str],
    /// One-line rationale, echoed into findings and `--explain`.
    pub why: &'static str,
}

/// Rule name for the suppression-hygiene meta rule (not pattern-based;
/// enforced by the engine): every `fg-lint: allow` must name at least
/// one known rule and carry a non-empty reason, and must actually
/// suppress something.
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// Rule name for the crate-hygiene meta rule (not pattern-based): every
/// first-party crate root must carry `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE: &str = "forbid-unsafe";

/// The panic-free zones: protocol parsing and the per-connection serve
/// path (a panicking connection used to poison the worker queue — PR 9),
/// the shared frame codec every protocol parses through, plus the WAL
/// scan/recovery readers (a panic during recovery turns recoverable
/// damage into an unstartable store).
pub const PANIC_FREEDOM: Rule = Rule {
    name: "panic-freedom",
    patterns: &[
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!(",
        "unimplemented!(",
    ],
    zones: &[
        Zone {
            path: "crates/serve/src/protocol.rs",
            items: &[],
        },
        Zone {
            path: "crates/serve/src/server.rs",
            items: &[
                "worker_loop",
                "serve_connection",
                "serve_write",
                "read_full",
                "reject_shutting_down",
                "send_op_error",
                "send_protocol_error",
            ],
        },
        Zone {
            path: "crates/store/src/codec.rs",
            items: &[],
        },
        Zone {
            path: "crates/store/src/wal.rs",
            items: &["scan_wal", "decode_records", "parse_record_at"],
        },
        Zone {
            path: "crates/store/src/repl.rs",
            items: &[],
        },
    ],
    allowed_paths: &[],
    why: "protocol parsing and per-connection serving must degrade to typed \
          errors, never panics: one panicking connection wedged every worker \
          (PR 9), and a panicking WAL scan makes crash damage unrecoverable",
};

/// Raw filesystem mutation belongs to the fsync-aware wrappers in
/// fg-store. PR 9 found a rename that skipped the directory fsync and
/// silently undid crash-durability; this rule makes that class of bug a
/// review-time failure forever.
pub const BLESSED_IO: Rule = Rule {
    name: "blessed-io",
    patterns: &["fs::rename", "File::create", "OpenOptions"],
    zones: &[
        Zone {
            path: "crates/",
            items: &[],
        },
        Zone {
            path: "src/",
            items: &[],
        },
    ],
    allowed_paths: &[
        // The blessed wrappers themselves: every create/rename here is
        // paired with the file + directory fsyncs durability needs.
        "crates/store/src/wal.rs",
        "crates/store/src/snapstore.rs",
    ],
    why: "durable file creation and rename must go through the fsync-aware \
          fg-store wrappers (wal/snapstore): a bare rename without the \
          directory fsync silently loses crash-durability (PR 9 bug)",
};

/// `.lock().unwrap()` in a long-lived thread turns one sibling panic
/// into a deadlocked process: the poisoned mutex wedges every worker
/// (the PR 9 fg-serve bug). Long-lived threads must recover the guard
/// (`unwrap_or_else(|e| e.into_inner())`) when the protected data has
/// no invariant a panic could tear.
pub const POISON_SAFE_LOCKS: Rule = Rule {
    name: "poison-safe-locks",
    patterns: &[
        ".lock().unwrap()",
        ".lock().expect(",
        ".read().unwrap()",
        ".read().expect(",
        ".write().unwrap()",
        ".write().expect(",
    ],
    zones: &[
        Zone {
            path: "crates/serve/src/",
            items: &[],
        },
        Zone {
            path: "crates/store/src/",
            items: &[],
        },
    ],
    allowed_paths: &[],
    why: "a poisoned lock in fg-serve/fg-store long-lived threads wedged \
          every server worker (PR 9); recover the guard with \
          unwrap_or_else(|e| e.into_inner()) and argue why the data \
          cannot be torn",
};

/// Digest-bearing crates must be bit-deterministic: every engine/dist
/// outcome digest is golden-pinned, so wall clocks and randomized
/// iteration orders in those crates are at best dead weight and at
/// worst silent digest drift.
pub const DETERMINISM: Rule = Rule {
    name: "determinism",
    patterns: &[
        "Instant::now",
        "SystemTime",
        "HashMap",
        "HashSet",
        "thread_rng",
        "random()",
    ],
    zones: &[
        Zone {
            path: "crates/core/src/",
            items: &[],
        },
        Zone {
            path: "crates/dist/src/",
            items: &[],
        },
    ],
    allowed_paths: &[],
    why: "fg-core and fg-dist produce golden-pinned outcome digests; \
          wall-clock reads and hash-randomized containers there risk \
          digest drift the differential suites can only catch after the \
          fact",
};

/// A swallowed `Result` on the durability or serving path is an
/// acknowledged-but-not-performed I/O operation. Every `let _ =` over a
/// call must either propagate (`?`), handle the error, or carry a
/// reasoned suppression saying why best-effort is correct there.
pub const SWALLOWED_RESULTS: Rule = Rule {
    name: "swallowed-results",
    // Matched specially by the engine: a `let _ =` statement whose RHS
    // is a call and which does not end in `?;` (propagation discards
    // only the Ok value, not the error).
    patterns: &["let _ ="],
    zones: &[
        Zone {
            path: "crates/store/src/",
            items: &[],
        },
        Zone {
            path: "crates/serve/src/",
            items: &[],
        },
    ],
    allowed_paths: &[],
    why: "a discarded Result in fg-store/fg-serve is I/O that may have \
          silently failed after being acknowledged; swallow only with a \
          written reason",
};

/// The WAL, FGQ1 and FGR1 share one frame layout, and each once carried
/// its own copy of the frame writer and checks; the copies drifted (only
/// FGQ1's writer checked the size cap, and only in debug builds). A
/// frame is written or checked only in `fg_store::codec`, so a CRC
/// computed anywhere else is a second codec.
pub const ONE_FRAME_CODEC: Rule = Rule {
    name: "one-frame-codec",
    patterns: &["crc32("],
    zones: &[
        Zone {
            path: "crates/",
            items: &[],
        },
        Zone {
            path: "src/",
            items: &[],
        },
    ],
    allowed_paths: &["crates/store/src/codec.rs"],
    why: "frames are written and checked only by fg_store::codec \
          (frame, frame_header, check_frame, frame_at): hand-rolled copies \
          of the WAL/FGQ1/FGR1 framing drifted apart",
};

/// Every pattern rule, in reporting order.
pub const RULES: &[&Rule] = &[
    &PANIC_FREEDOM,
    &BLESSED_IO,
    &POISON_SAFE_LOCKS,
    &DETERMINISM,
    &SWALLOWED_RESULTS,
    &ONE_FRAME_CODEC,
];

/// Every rule name a suppression may legally reference.
pub const ALL_RULE_NAMES: &[&str] = &[
    PANIC_FREEDOM.name,
    BLESSED_IO.name,
    POISON_SAFE_LOCKS.name,
    DETERMINISM.name,
    SWALLOWED_RESULTS.name,
    ONE_FRAME_CODEC.name,
    FORBID_UNSAFE,
    BAD_SUPPRESSION,
];

impl Rule {
    /// Whether `rel_path` (repo-relative, `/`-separated) falls inside
    /// this rule's zones and outside its blessed paths.
    pub fn covers_path(&self, rel_path: &str) -> bool {
        if self.allowed_paths.iter().any(|p| rel_path.starts_with(p)) {
            return false;
        }
        self.zones.iter().any(|z| rel_path.starts_with(z.path))
    }

    /// Whether line `line` (1-based) of `file` at `rel_path` is inside
    /// an item-scoped zone (or the zone is whole-file).
    pub fn covers_line(&self, rel_path: &str, file: &LexedFile, line: usize) -> bool {
        self.zones
            .iter()
            .filter(|z| rel_path.starts_with(z.path))
            .any(|z| z.items.is_empty() || file.line_in_items(line, z.items))
    }
}
