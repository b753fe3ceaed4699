//! Deterministic metrics: counters, gauges and log-bucketed histograms.
//!
//! Every metric value here is an **integer over deterministic program
//! state** (patterns simulated, faults dropped, relaxation passes, …) —
//! never a wall-clock reading. Merging is associative and commutative for
//! counters and histograms, so per-worker registries folded in any
//! grouping produce identical totals; this is what makes a campaign's
//! metrics byte-identical at any thread count. Wall-clock data lives in
//! [`super::trace`] instead and is never serialized into the tracked
//! snapshot.
//!
//! # Examples
//!
//! ```
//! use rt::obs::metrics::Metrics;
//!
//! let mut m = Metrics::new();
//! m.add("patterns", 64);
//! m.record("dropped_per_block", 17);
//! let mut other = Metrics::new();
//! other.add("patterns", 64);
//! m.merge(&other);
//! assert_eq!(m.counter("patterns"), Some(128));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of fixed histogram buckets: 64 octaves × 4 sub-buckets.
pub const HISTOGRAM_BUCKETS: usize = 256;

/// Returns the bucket index for `v`.
///
/// Values below 4 get exact singleton buckets `0..4`; larger values land
/// in one of four sub-buckets per power-of-two octave (HdrHistogram-style
/// with 2 significant bits), bounding the relative quantization error at
/// 25 %. The largest `u64` maps to bucket 255.
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros();
        let sub = (v >> (octave - 2)) & 3;
        (octave * 4 + sub as u32) as usize
    }
}

/// Returns the inclusive `(lo, hi)` value range covered by bucket `index`.
///
/// Indices `0..8` are singletons (indices `4..8` are never produced by
/// [`bucket_index`] but map to themselves so the function is total).
///
/// # Panics
///
/// Panics if `index >= HISTOGRAM_BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    if index < 8 {
        return (index as u64, index as u64);
    }
    let octave = (index / 4) as u32;
    let sub = (index % 4) as u64;
    let width = 1u64 << (octave - 2);
    let lo = (4 + sub) << (octave - 2);
    (lo, lo + (width - 1))
}

/// A log-bucketed value histogram with exact count/sum/min/max and an
/// associative, commutative [`Histogram::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation of `v`.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Associative and commutative: any merge
    /// tree over the same multiset of observations yields equal state.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Non-empty buckets as `(index, count)` pairs, in index order.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// One named metric in a [`Metrics`] registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// Monotonic counter: merges by summation.
    Counter(u64),
    /// Point-in-time level: merges last-writer-wins (the merged-in value
    /// replaces the existing one), so gauges should only be set from
    /// deterministic single-threaded code.
    Gauge(i64),
    /// Log-bucketed value distribution: merges bucket-wise.
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named registry of metrics with a deterministic (sorted-key) JSON
/// rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    entries: BTreeMap<String, Metric>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// True when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `n` to the counter `name`, registering it (even for `n = 0`)
    /// if absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn add(&mut self, name: &str, n: u64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += n,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the gauge `name` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert(Metric::Gauge(0))
        {
            Metric::Gauge(g) => *g = v,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Records `v` into the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn record(&mut self, name: &str, v: u64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.record(v),
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Folds `other` into `self`: counters sum, histograms merge
    /// bucket-wise, gauges take `other`'s value.
    ///
    /// # Panics
    ///
    /// Panics if the same name holds different metric kinds.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, metric) in &other.entries {
            match self.entries.get_mut(name) {
                None => {
                    self.entries.insert(name.clone(), metric.clone());
                }
                Some(Metric::Counter(a)) => match metric {
                    Metric::Counter(b) => *a += b,
                    other => panic!("metric {name:?}: counter vs {}", other.kind()),
                },
                Some(Metric::Gauge(a)) => match metric {
                    Metric::Gauge(b) => *a = *b,
                    other => panic!("metric {name:?}: gauge vs {}", other.kind()),
                },
                Some(Metric::Histogram(a)) => match metric {
                    Metric::Histogram(b) => a.merge(b),
                    other => panic!("metric {name:?}: histogram vs {}", other.kind()),
                },
            }
        }
    }

    /// Reads the counter `name`, if present (and a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(Metric::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Reads the gauge `name`, if present (and a gauge).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.entries.get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Reads the histogram `name`, if present (and a histogram).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.entries.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// All entries in sorted-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the registry as deterministic pretty-printed JSON: keys in
    /// sorted order, integer values only (no float formatting), histograms
    /// as sparse `[bucket, count]` pairs plus exact count/sum/min/max.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let last = self.entries.len().saturating_sub(1);
        for (i, (name, metric)) in self.entries.iter().enumerate() {
            let _ = write!(out, "  {}: ", json_string(name));
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, "{{\"type\": \"counter\", \"value\": {c}}}");
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, "{{\"type\": \"gauge\", \"value\": {g}}}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                        h.count(),
                        h.sum(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0),
                    );
                    for (j, (bucket, count)) in h.nonzero_buckets().into_iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{bucket}, {count}]");
                    }
                    out.push_str("]}");
                }
            }
            out.push_str(if i == last { "\n" } else { ",\n" });
        }
        out.push_str("}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..8u64 {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert_eq!((lo, hi), (v, v), "value {v} not exact");
        }
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        check("bucket_bounds_contain_value", |d| {
            let v = d.next_u64();
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
            // Relative quantization error is bounded by the sub-bucket
            // resolution: width/lo <= 1/4.
            assert!(hi - lo <= lo.max(1) / 4 + 1, "bucket too wide at {v}");
        });
    }

    #[test]
    fn buckets_partition_contiguously() {
        // Consecutive reachable buckets tile the value line: each bucket's
        // hi + 1 is the next bucket's lo.
        let mut prev_hi: Option<u64> = None;
        for i in (0..4).chain(8..HISTOGRAM_BUCKETS) {
            let (lo, hi) = bucket_bounds(i);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap before bucket {i}");
            }
            assert!(lo <= hi);
            if hi == u64::MAX {
                break;
            }
            prev_hi = Some(hi);
        }
    }

    #[test]
    fn extreme_values_are_representable() {
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn edge_values_roundtrip_exactly_or_within_bucket() {
        // 0 and 1 are singleton buckets; u64::MAX lands in the last
        // bucket, whose hi edge is exactly u64::MAX.
        for v in [0u64, 1] {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
        let (lo, hi) = bucket_bounds(bucket_index(u64::MAX));
        assert!(lo > 0);
        assert_eq!(hi, u64::MAX);
        // Every bucket-boundary value maps into the bucket it bounds —
        // lo and hi of one bucket never split across two indices.
        for i in (0..4).chain(8..HISTOGRAM_BUCKETS) {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
            if hi != u64::MAX {
                // The next value starts a strictly later (reachable)
                // bucket — indices 4..8 are skipped, so only order, not
                // adjacency, is guaranteed.
                assert!(bucket_index(hi + 1) > i, "hi+1 of {i} fell back");
            }
        }
    }

    #[test]
    fn merge_associativity_holds_at_the_edges() {
        // Deliberately edge-valued parts (0, 1, u64::MAX and bucket
        // boundaries) rather than random draws: overflow or min/max
        // mishandling would show up here first.
        let mut a = Histogram::new();
        a.record(0);
        a.record(u64::MAX);
        let mut b = Histogram::new();
        b.record(1);
        b.record(u64::MAX);
        let mut c = Histogram::new();
        for i in (0..4).chain(8..HISTOGRAM_BUCKETS).step_by(17) {
            let (lo, hi) = bucket_bounds(i);
            c.record(lo);
            c.record(hi);
        }
        let empty = Histogram::new();
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        left.merge(&empty);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = empty.clone();
        right.merge(&a);
        right.merge(&bc);
        assert_eq!(left, right, "edge-valued merge is not associative");
        assert_eq!(left.min(), Some(0));
        assert_eq!(left.max(), Some(u64::MAX));
        assert_eq!(left.sum(), a.sum() + b.sum() + c.sum());
        // Merging an empty histogram is the identity, including min/max.
        let mut with_empty = left.clone();
        with_empty.merge(&empty);
        assert_eq!(with_empty, left, "empty merge must be the identity");
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        check("histogram_merge_assoc_comm", |d| {
            let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
            for h in &mut parts {
                for _ in 0..d.range_usize(0, 20) {
                    h.record(d.next_u64() >> d.range_usize(0, 63));
                }
            }
            let [a, b, c] = parts;

            // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "merge is not associative");

            // a ⊕ b == b ⊕ a
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge is not commutative");
        });
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn counters_sum_and_gauges_take_latest() {
        let mut a = Metrics::new();
        a.add("hits", 3);
        a.set_gauge("depth", 5);
        let mut b = Metrics::new();
        b.add("hits", 4);
        b.set_gauge("depth", -2);
        a.merge(&b);
        assert_eq!(a.counter("hits"), Some(7));
        assert_eq!(a.gauge("depth"), Some(-2));
    }

    #[test]
    fn zero_add_registers_the_counter() {
        let mut m = Metrics::new();
        m.add("touched", 0);
        assert_eq!(m.counter("touched"), Some(0));
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_conflict_panics() {
        let mut m = Metrics::new();
        m.record("x", 1);
        m.add("x", 1);
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut m = Metrics::new();
        m.add("zebra", 1);
        m.record("alpha", 42);
        m.set_gauge("mid", -7);
        let json = m.to_json();
        let alpha = json.find("\"alpha\"").unwrap();
        let mid = json.find("\"mid\"").unwrap();
        let zebra = json.find("\"zebra\"").unwrap();
        assert!(alpha < mid && mid < zebra, "keys not sorted:\n{json}");
        assert_eq!(json, m.clone().to_json(), "rendering is not stable");
        assert!(json.contains("\"type\": \"histogram\""));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
