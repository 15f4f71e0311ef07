//! Sample collection and the few statistics the report needs: exact
//! quantiles over raw nanosecond samples (no bucketing, so a median
//! keeps all its digits), means, and the process's peak resident set.

use std::time::{Duration, Instant};

/// Raw latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, d: Duration) {
        self.push_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The samples, in recorded order until a quantile sorts them.
    pub fn raw(&self) -> &[u64] {
        &self.ns
    }

    pub fn sum_ns(&self) -> f64 {
        self.ns.iter().map(|&x| x as f64).sum()
    }

    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.sum_ns() / self.ns.len() as f64
        }
    }

    /// The `q`-quantile by linear interpolation between closest ranks
    /// (0 when empty).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let pos = q.clamp(0.0, 1.0) * (self.ns.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.ns[lo] as f64 * (1.0 - frac) + self.ns[hi] as f64 * frac
    }

    pub fn p50_us(&mut self) -> f64 {
        self.quantile_ns(0.50) / 1e3
    }

    pub fn p99_us(&mut self) -> f64 {
        self.quantile_ns(0.99) / 1e3
    }
}

/// Latency samples binned by completion time into equal windows of the
/// measured interval. Reporting the median window's rate and quantiles
/// keeps one stalled second from moving a run's figures.
#[derive(Debug, Default)]
pub struct Windows {
    start: Option<Instant>,
    width_ns: u128,
    bins: Vec<Samples>,
}

impl Windows {
    /// `count` windows splitting `seconds` from `start`.
    pub fn new(start: Instant, seconds: f64, count: usize) -> Windows {
        let count = count.max(1);
        Windows {
            start: Some(start),
            width_ns: (Duration::from_secs_f64(seconds).as_nanos() / count as u128).max(1),
            bins: vec![Samples::new(); count],
        }
    }

    /// Records one latency that completed at `at`; completions after the
    /// last window (the drain) are not binned.
    pub fn record(&mut self, at: Instant, latency: Duration) {
        let Some(start) = self.start else { return };
        let bin = at.saturating_duration_since(start).as_nanos() / self.width_ns;
        if let Some(samples) = usize::try_from(bin).ok().and_then(|b| self.bins.get_mut(b)) {
            samples.push(latency);
        }
    }

    /// Drops the windows that end after `at` (the load ran out of
    /// input there), keeping at least the first.
    pub fn keep_until(&mut self, at: Instant) {
        let Some(start) = self.start else { return };
        let whole = at.saturating_duration_since(start).as_nanos() / self.width_ns;
        let keep = usize::try_from(whole).unwrap_or(usize::MAX).max(1);
        self.bins.truncate(keep);
    }

    pub fn merge(&mut self, other: Windows) {
        if self.bins.is_empty() {
            *self = other;
            return;
        }
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            mine.extend(theirs);
        }
    }

    /// Samples inside the windows.
    pub fn len(&self) -> usize {
        self.bins.iter().map(Samples::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The median window's completions per second.
    pub fn rate(&self) -> f64 {
        let secs = self.width_ns as f64 / 1e9;
        let rates: Vec<f64> = self.bins.iter().map(|b| b.len() as f64 / secs).collect();
        median(&rates)
    }

    /// The median over windows of each window's `q`-quantile, in µs.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .bins
            .iter_mut()
            .filter(|b| !b.is_empty())
            .map(|b| b.quantile_ns(q) / 1e3)
            .collect();
        median(&per)
    }

    /// Mean latency over every binned sample, in ns.
    pub fn mean_ns(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        self.bins.iter().map(Samples::sum_ns).sum::<f64>() / n as f64
    }
}

/// The median of a few floats (setup repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for x in [10, 20, 30, 40] {
            s.push_ns(x);
        }
        assert_eq!(s.quantile_ns(0.0), 10.0);
        assert_eq!(s.quantile_ns(0.5), 25.0);
        assert_eq!(s.quantile_ns(1.0), 40.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
