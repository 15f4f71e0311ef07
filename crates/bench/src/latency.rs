//! A fixed log-bucket latency histogram — no dependencies, constant
//! memory, mergeable across threads.
//!
//! The bucketing is HDR-style: values below 2^`SUB_BITS` get exact
//! unit buckets; above that, each power-of-two octave is split into
//! 2^`SUB_BITS` linear sub-buckets, so relative error is bounded by
//! `1/2^SUB_BITS` (≈6% at the default 4 sub-bits) at every magnitude
//! from nanoseconds to minutes. That is exactly the precision a p50/p99
//! report needs, at 8 KiB per histogram, with `merge` a plain
//! element-wise add — each bench client records into its own histogram
//! and the driver folds them at the end.

use crate::json::Json;
use std::time::Duration;

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS`
/// linear buckets.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Enough buckets to index any `u64` nanosecond value.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Maps a nanosecond value to its bucket index.
fn bucket_index(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - u64::from(ns.leading_zeros()); // >= SUB_BITS
    let mantissa = (ns >> (exp - u64::from(SUB_BITS))) as usize - SUB;
    ((exp - u64::from(SUB_BITS) + 1) as usize) * SUB + mantissa
}

/// The smallest nanosecond value mapping to `index` — the inverse used
/// when reading percentiles back out.
fn bucket_low(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let exp = (index / SUB - 1) as u64 + u64::from(SUB_BITS);
    let mantissa = (index % SUB) as u64;
    (SUB as u64 + mantissa) << (exp - u64::from(SUB_BITS))
}

/// A fixed log-bucket histogram of durations, in nanoseconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    total_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one nanosecond sample.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.total_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds another histogram in (per-thread recording, one merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Largest sample in nanoseconds (exact, not bucketed; 0 when empty).
    pub fn max_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max_ns
        }
    }

    /// Smallest sample in nanoseconds (exact; 0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// The `q`-quantile in nanoseconds (`q` in `[0, 1]`; e.g. `0.99`),
    /// reported as the lower bound of the bucket holding that sample —
    /// within one sub-bucket (≈6%) of the true value. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // The rank of the q-quantile sample, 1-based, clamped into range.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_low(i).max(self.min_ns).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// The standard percentile report as a JSON object, in microseconds
    /// (`count`, `mean_us`, `p50_us`, `p90_us`, `p99_us`, `p999_us`,
    /// `min_us`, `max_us`) — the `latency` shape of `BENCH_serve.json`.
    pub fn to_json(&self) -> Json {
        let us = |ns: u64| Json::Float(ns as f64 / 1e3);
        Json::obj()
            .field("count", Json::Int(self.count as i64))
            .field("mean_us", Json::Float(self.mean_ns() / 1e3))
            .field("p50_us", us(self.quantile_ns(0.50)))
            .field("p90_us", us(self.quantile_ns(0.90)))
            .field("p99_us", us(self.quantile_ns(0.99)))
            .field("p999_us", us(self.quantile_ns(0.999)))
            .field("min_us", us(self.min_ns()))
            .field("max_us", us(self.max_ns()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_invertible() {
        let mut last = 0;
        for ns in [
            0u64,
            1,
            15,
            16,
            17,
            100,
            1_000,
            65_535,
            65_536,
            1_000_000,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(ns);
            assert!(i >= last, "bucket_index must be monotone at {ns}");
            last = i;
            let low = bucket_low(i);
            assert!(low <= ns, "bucket_low({i}) = {low} > {ns}");
            // The bucket's lower bound is within one sub-bucket of the value.
            assert!(
                ns - low <= (ns >> SUB_BITS),
                "bucket too wide at {ns}: low {low}"
            );
        }
    }

    #[test]
    fn exhaustive_small_values_are_exact() {
        for ns in 0..(SUB as u64) {
            assert_eq!(bucket_low(bucket_index(ns)), ns);
        }
    }

    #[test]
    fn quantiles_order_and_bound() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=1000u64 {
            h.record_ns(ns * 1000); // 1µs..1ms
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        let p999 = h.quantile_ns(0.999);
        assert!(p50 <= p99 && p99 <= p999 && p999 <= h.max_ns());
        // p50 of a uniform 1µs..1ms ramp is ~500µs, within bucket error.
        assert!((450_000..=500_000).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 900_000, "p99 = {p99}");
        assert!(h.mean_ns() > 0.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..500u64 {
            let ns = (i * 7919) % 1_000_000;
            if i % 2 == 0 {
                a.record_ns(ns);
            } else {
                b.record_ns(ns);
            }
            all.record_ns(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max_ns(), all.max_ns());
        assert_eq!(a.min_ns(), all.min_ns());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile_ns(q), all.quantile_ns(q));
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        let text = h.to_json().pretty();
        assert!(text.contains("\"p99_us\""));
        assert!(text.contains("\"count\": 0"));
    }

    #[test]
    fn json_report_round_trips() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(120));
        h.record(Duration::from_micros(80));
        let text = h.to_json().pretty();
        let back = Json::parse(&text).expect("report parses");
        assert!(matches!(back.get("count"), Some(Json::Int(2))));
        assert!(matches!(back.get("p50_us"), Some(Json::Float(f)) if f.is_finite() && *f > 0.0));
    }
}
