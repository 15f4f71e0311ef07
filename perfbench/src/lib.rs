//! The repository benchmark: four workloads against the real stack,
//! each checked against the `(epoch, digest)` certificate chain, with an
//! untraced run that reports the end-to-end metrics and a traced run
//! that times the calls into each layer from outside it.
//!
//! See `METRICS.md` beside this crate for the metric → layer → workload
//! map.

#![forbid(unsafe_code)]

pub mod heal_replay;
pub mod layers;
pub mod mixed_replica;
pub mod read_serve;
pub mod reads;
pub mod stats;
pub mod write_ack;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadServe,
    WriteAck,
    MixedReplica,
    HealReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadServe,
        Workload::WriteAck,
        Workload::MixedReplica,
        Workload::HealReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadServe => "read-serve",
            Workload::WriteAck => "write-ack",
            Workload::MixedReplica => "mixed-replica",
            Workload::HealReplay => "heal-replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReadServe => {
                "served reads only: protocol, server, SnapshotHub::pin and the FrozenView kernels; \
                 no engine, store, freeze or replication work"
            }
            Workload::WriteAck => {
                "durable write acks from two submitters: engine apply, WAL append + fsync, \
                 freeze, publish and the writer queue, where group commit would show"
            }
            Workload::MixedReplica => {
                "open-loop writes to the master while reads pin a replica that republishes \
                 every sync: write-side cost moved onto readers shows here"
            }
            Workload::HealReplay => {
                "in-process churn replay through the engine and fg-dist in lockstep: \
                 repair cost without freeze, socket or disk in the way"
            }
        }
    }
}

/// A deliberate fault for proving the correctness gate can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// Flip a bit in one certificate stamp before it is checked.
    Stamp,
    /// Alter one answer (or outcome digest) before it is checked.
    Answer,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small sizes for the smoke tests.
    pub tiny: bool,
    pub corrupt: Option<Corrupt>,
    /// Where stores are created; removed when the run ends.
    pub scratch: PathBuf,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures, one line each.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The workload record: `key=value` facts about the inputs.
    pub record: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.record.push((key, value.to_string()));
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }
}

/// The end-to-end metrics every untraced run reports. Each workload
/// reads "op" as its own user-visible operation (see `METRICS.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
];

/// The per-layer metrics every traced run reports; a layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.req_encode_ns", "ns"),
    ("protocol.req_decode_ns", "ns"),
    ("protocol.resp_encode_ns", "ns"),
    ("protocol.resp_decode_ns", "ns"),
    ("protocol.bytes_per_read", "bytes"),
    ("snapshot.pin_ns", "ns"),
    ("kernel.dist_ns", "ns"),
    ("kernel.path_ns", "ns"),
    ("kernel.stretch_ns", "ns"),
    ("kernel.degree_ns", "ns"),
    ("kernel.comp_ns", "ns"),
    ("server.read_residual_us", "us"),
    ("read.coverage", "ratio"),
    ("engine.apply_us", "us"),
    ("engine.phase.insert_s", "s"),
    ("engine.phase.gather_s", "s"),
    ("engine.phase.strip_s", "s"),
    ("engine.phase.plan_s", "s"),
    ("engine.phase.merge_s", "s"),
    ("engine.coverage", "ratio"),
    ("engine.events_per_s", "1/s"),
    ("store.log_fsync_us", "us"),
    ("store.wal_bytes_per_event", "bytes"),
    ("snapshot.freeze_image_us", "us"),
    ("snapshot.freeze_ghost_us", "us"),
    ("snapshot.freeze_us", "us"),
    ("snapshot.publish_us", "us"),
    ("write.residual_us", "us"),
    ("write.coverage", "ratio"),
    ("write.due_p50_us", "us"),
    ("write.due_p99_us", "us"),
    ("repl.lag_p50_us", "us"),
    ("repl.lag_p99_us", "us"),
    ("repl.sync_us", "us"),
    ("repl.records_per_sync", "count"),
    ("repl.bytes_per_record", "bytes"),
    ("replica.freeze_us", "us"),
    ("repl.coverage", "ratio"),
    ("dist.events_per_s", "1/s"),
    ("dist.us_per_event_first_tenth", "us"),
    ("dist.us_per_event_last_tenth", "us"),
    ("dist.messages_per_delete", "count"),
    ("dist.rounds_per_delete", "count"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_ops_frac", "ratio"),
    ("trace.overhead_p50_frac", "ratio"),
];

/// Every workload runs on the standard churn snapshot and trace, built
/// from this scenario seed; `--seed` drives each workload's own request
/// stream, so runs on different seeds share the state they measure.
pub const SNAPSHOT_SEED: u64 = 42;

/// How many times a run builds its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// The same for a set-up that takes only milliseconds (heal-replay's
/// two healers from G0, about 7 ms), whose median of a few builds moves
/// with every scheduling hiccup; 101 builds take under a second.
pub const SETUP_REPS_FAST: usize = 101;

/// A store directory that is removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(parent: &Path, name: &str) -> TempDir {
        let dir = parent.join(name);
        // A leftover from an interrupted run would make create() refuse.
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds `reps` set-ups with `build`, keeps the last one, and returns
/// it with the median build time in seconds. Earlier builds are dropped
/// (servers shut down, stores removed) before the next starts.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps.max(1) {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(build(rep));
        times.push(started.elapsed().as_secs_f64());
    }
    (
        kept.expect("at least one set-up is built"),
        stats::median(&times),
    )
}

/// A seed-derived sub-seed, so each input stream is independent.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Unmeasured load before the measured window, so connections, caches
/// and lazy set-up are warm when timing starts.
pub fn warmup_seconds(cfg: &Config) -> f64 {
    (cfg.seconds * 0.2).min(2.0)
}

/// A small seeded generator (splitmix64) for the benchmark's own input
/// choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        sub_seed(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Runs one workload. Never panics on a gate failure: mismatches land
/// in [`Report::problems`].
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    report.note("workload", cfg.workload.name());
    report.note("seed", cfg.seed);
    report.note("host_cpus", fg_bench::host_cpus());
    report.note("trace", u8::from(cfg.trace));
    report.note("why", cfg.workload.why());
    match cfg.workload {
        Workload::ReadServe => read_serve::run(cfg, &mut report),
        Workload::WriteAck => write_ack::run(cfg, &mut report),
        Workload::MixedReplica => mixed_replica::run(cfg, &mut report),
        Workload::HealReplay => heal_replay::run(cfg, &mut report),
    }
    report.metric("rss_peak_mb", stats::rss_peak_mb(), "MiB");
    report
}

/// The result line: one JSON object with the metrics the run's mode
/// promises (missing per-layer metrics read 0).
pub fn result_json(report: &Report, trace: bool) -> String {
    let names = if trace { PER_LAYER } else { END_TO_END };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = report.value(name).unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
