//! Tiny shared CLI parsing for the experiment binaries.
//!
//! Every E-binary (and the throughput runner) accepts the same base flags
//! instead of hardcoded constants:
//!
//! * `--seed <u64>` — base RNG seed for workloads and adversaries;
//! * `--scale <f64>` — multiplies every size sweep (e.g. `--scale 4`
//!   turns the 64/256/1024 sweep into 256/1024/4096);
//! * `--json <path>` — additionally write the result tables as JSON
//!   (a bare file name lands in the current directory);
//! * the binary's own `--name value` flags, which it names when it
//!   parses ([`BenchArgs::parse`]) and reads via [`BenchArgs::get`].
//!
//! Parsing is deliberately minimal (no external crates): flags are
//! `--name value` pairs in any order. `--help` (or `-h`) prints a usage
//! line listing the accepted flags and exits 0. Input errors never
//! panic: a malformed argument list, an unknown flag, a missing required
//! flag, an unparsable value, an unregistered workload name
//! ([`BenchArgs::check_workloads`]) or an output path (`--json`, or a
//! flag the binary checks with [`BenchArgs::check_outputs`]) in a
//! directory that does not exist prints the error and the usage line to
//! stderr and exits with status 2 ([`BenchArgs::fail`]), before the run
//! starts. An output write that fails later exits with status 1
//! ([`or_exit`]).

use crate::json::Json;
use fg_metrics::Table;
use std::path::Path;
use std::str::FromStr;

/// The flags every binary accepts (see the module docs).
const SHARED_FLAGS: [&str; 3] = ["seed", "scale", "json"];

/// Parsed command-line flags for an experiment binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    flags: Vec<(String, String)>,
    /// Every flag name this binary accepts: the shared ones, then its own.
    accepted: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments against the binary's own flag names
    /// (`own`, without the `--`); the shared flags are always accepted.
    /// `--help` or `-h` prints the usage line and exits 0; a malformed
    /// list or an unknown flag is an input error ([`BenchArgs::fail`]).
    pub fn parse(own: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let empty = Self::accepting(own);
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", usage(&empty.accepted));
            std::process::exit(0);
        }
        Self::parse_from(args, own).unwrap_or_else(|e| empty.fail(&e))
    }

    /// Parses an explicit argument list against the binary's own flag
    /// names (see [`BenchArgs::parse`]).
    ///
    /// # Errors
    ///
    /// A message naming the offending argument when the list is not a
    /// run of `--name value` pairs (a positional argument, or a flag
    /// without a value), names a flag the binary does not accept, or
    /// gives a `--json` path whose directory does not exist.
    pub fn parse_from<I, S>(args: I, own: &[&str]) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut parsed = Self::accepting(own);
        let mut iter = args.into_iter().map(Into::into);
        while let Some(arg) = iter.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {arg:?}"))?
                .to_string();
            if !parsed.accepted.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            parsed.flags.push((name, value));
        }
        parsed.output_dirs_exist(&["json"])?;
        Ok(parsed)
    }

    /// Checks that every named flag that was given names a file in a
    /// directory that exists (a bare file name lands in the current
    /// directory); the check `--json` gets at parse time.
    fn output_dirs_exist(&self, names: &[&str]) -> Result<(), String> {
        for &name in names {
            let Some(path) = self.raw(name) else {
                continue;
            };
            let dir = Path::new(path)
                .parent()
                .filter(|dir| !dir.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            if !dir.is_dir() {
                return Err(format!(
                    "--{name} {path:?}: directory {} does not exist",
                    dir.display()
                ));
            }
        }
        Ok(())
    }

    /// Gives the binary's own output-path flags `names` the `--json`
    /// check: a path in a directory that does not exist is an input
    /// error ([`BenchArgs::fail`]). Call it before the run starts.
    pub fn check_outputs(&self, names: &[&str]) {
        if let Err(e) = self.output_dirs_exist(names) {
            self.fail(&e);
        }
    }

    /// Checks each of `names` against the workload registry
    /// ([`crate::WORKLOADS`]): an unregistered name is an input error
    /// ([`BenchArgs::fail`]). Call it before the run starts.
    pub fn check_workloads(&self, names: &[&str]) {
        for name in names {
            if !crate::WORKLOADS.contains(name) {
                self.fail(&format!(
                    "unknown workload {name:?}; registered: {}",
                    crate::WORKLOADS.join(", ")
                ));
            }
        }
    }

    /// No flags given yet; the shared flags and `own` are accepted.
    fn accepting(own: &[&str]) -> Self {
        let accepted = SHARED_FLAGS.iter().chain(own).map(|name| name.to_string());
        BenchArgs {
            flags: Vec::new(),
            accepted: accepted.collect(),
        }
    }

    /// Reports a command-line input error and exits: the message and the
    /// usage line go to stderr, and the exit status is 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}");
        eprintln!("{}", usage(&self.accepted));
        std::process::exit(2)
    }

    /// The raw value of `--name`; its absence is an input error
    /// ([`BenchArgs::fail`]).
    pub fn required(&self, name: &str) -> &str {
        self.raw(name)
            .unwrap_or_else(|| self.fail(&format!("--{name} is required")))
    }

    /// The raw value of `--name`, if given (last occurrence wins).
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The parsed value of `--name`, or `default` when absent. A value
    /// that does not parse as `T` is an input error
    /// ([`BenchArgs::fail`]).
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> T {
        match self.raw(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| self.fail(&format!("--{name} {v:?} is not a valid value"))),
            None => default,
        }
    }

    /// The base seed (`--seed`), defaulting to the binary's historical
    /// constant.
    pub fn seed(&self, default: u64) -> u64 {
        self.get("seed", default)
    }

    /// Scales a size from a sweep by `--scale` (default 1.0), keeping a
    /// sane floor so tiny scales stay runnable.
    pub fn scale_n(&self, n: usize) -> usize {
        self.scale_with_floor(n, 8)
    }

    /// [`BenchArgs::scale_n`] with an explicit floor — for degree sweeps
    /// whose small entries are meaningful (e.g. E3's d = 4).
    pub fn scale_with_floor(&self, n: usize, floor: usize) -> usize {
        let scale: f64 = self.get("scale", 1.0);
        ((n as f64 * scale).round() as usize).max(floor)
    }

    /// The `--json` output path, if given.
    pub fn json_path(&self) -> Option<&str> {
        self.raw("json")
    }

    /// Prints every table as markdown and, when `--json` was given, writes
    /// them all to that path as a JSON array of
    /// `{title, headers, rows}` objects ([`write_artifact`]).
    pub fn emit(&self, tables: &[&Table]) {
        for table in tables {
            println!("{}", table.to_markdown());
        }
        if let Some(path) = self.json_path() {
            let doc = Json::Arr(tables.iter().map(|t| table_json(t)).collect());
            write_artifact(path, &doc);
        }
    }
}

/// Writes `doc` to `path` as pretty JSON; a failed write exits with
/// status 1 ([`or_exit`]).
pub fn write_artifact(path: &str, doc: &Json) {
    or_exit(
        std::fs::write(path, doc.pretty()),
        &format!("writing {path}"),
    );
    eprintln!("wrote {path}");
}

/// The result of an output write, or, when it failed, `error: {what}:`
/// and the cause on stderr and exit status 1: a run whose output was
/// lost must not look like a success, nor like a crash.
pub fn or_exit<T>(result: std::io::Result<T>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1)
    })
}

/// The usage line printed for `--help` and after every input error.
fn usage(accepted: &[String]) -> String {
    let bin = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&bin).file_name().map_or_else(
        || "fg-bench".to_string(),
        |name| name.to_string_lossy().into_owned(),
    );
    let flags: Vec<String> = accepted.iter().map(|name| format!("--{name}")).collect();
    format!(
        "usage: {bin} [--<flag> <value>]...\n\
         flags: {}; the binary's module docs describe them",
        flags.join(", ")
    )
}

/// A [`Table`] as a JSON object.
pub fn table_json(table: &Table) -> Json {
    Json::obj()
        .field("title", Json::str(table.title()))
        .field(
            "headers",
            Json::Arr(table.headers().iter().map(Json::str).collect()),
        )
        .field(
            "rows",
            Json::Arr(
                table
                    .rows()
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(Json::str).collect()))
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse_from(args.iter().copied(), &["threshold"]).unwrap()
    }

    #[test]
    fn parses_flag_pairs() {
        let args = parse(&["--seed", "9", "--scale", "0.5", "--json", "out.json"]);
        assert_eq!(args.seed(7), 9);
        assert_eq!(args.scale_n(64), 32);
        assert_eq!(args.json_path(), Some("out.json"));
        assert_eq!(args.get("threshold", 256usize), 256);
    }

    #[test]
    fn defaults_when_absent() {
        let args = parse(&[]);
        assert_eq!(args.seed(7), 7);
        assert_eq!(args.scale_n(64), 64);
        assert_eq!(args.json_path(), None);
    }

    #[test]
    fn scale_keeps_floor() {
        let args = parse(&["--scale", "0.01"]);
        assert_eq!(args.scale_n(64), 8);
    }

    #[test]
    fn last_flag_wins() {
        let args = parse(&["--seed", "1", "--seed", "2"]);
        assert_eq!(args.seed(0), 2);
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = BenchArgs::parse_from(["--seed"], &[]).unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
        let err = BenchArgs::parse_from(["seed", "1"], &[]).unwrap_err();
        assert!(err.contains("expected --flag"), "{err}");
    }

    #[test]
    fn only_shared_and_listed_flags_are_accepted() {
        let args = BenchArgs::parse_from(["--n", "16", "--json", "t.json"], &["n"]).unwrap();
        assert_eq!(args.get("n", 0usize), 16);
        assert_eq!(args.accepted, ["seed", "scale", "json", "n"]);
        let err = BenchArgs::parse_from(["--n", "16", "--wal", "dir"], &["n"]).unwrap_err();
        assert_eq!(err, "unknown flag --wal");
        let err = BenchArgs::parse_from(["--queries", "8"], &[]).unwrap_err();
        assert_eq!(err, "unknown flag --queries");
    }

    #[test]
    fn table_json_shape() {
        let mut t = Table::new("T", ["a", "b"]);
        t.push_row(["1", "2"]);
        let text = table_json(&t).pretty();
        assert!(text.contains("\"title\": \"T\""));
        assert!(text.contains("\"rows\""));
    }
}
