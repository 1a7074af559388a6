//! Statistic primitives used throughout the simulator.
//!
//! [`LatencyHistogram`] is a fixed-size log-bucketed (power-of-two) latency
//! distribution whose record and merge paths are pure integer arithmetic,
//! so per-shard histograms compose into machine totals bit-identically in
//! any merge order. This is the tail-latency instrument for the
//! request/response service workloads.
//!
//! Aggregation across shards, nodes and campaign cells goes through one
//! trait, [`Merge`], so a new counter cannot silently be dropped from a
//! hand-written merge function.

use serde::{Deserialize, Serialize};

/// Combining two statistics of the same kind into one.
///
/// Every aggregate the simulator reports — per-node message counters,
/// fabric totals, checkpoint accounting, latency histograms — is built by
/// merging per-shard partials. Routing all of them through this one trait
/// keeps the aggregation code generic and makes "forgot to merge the new
/// field" a review-visible diff on the `Merge` impl rather than a silent
/// bug in some hand-rolled summing loop.
///
/// Implementations must be **associative and commutative**: merging the
/// same partials in any grouping or order must produce bit-identical
/// results, because shard counts and executor schedules vary while the
/// reported totals may not (determinism invariants 1–7).
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);

    /// Merges an iterator of parts into a fresh default value.
    fn merged<I>(parts: I) -> Self
    where
        Self: Default + Sized,
        I: IntoIterator<Item = Self>,
    {
        let mut total = Self::default();
        for part in parts {
            total.merge(&part);
        }
        total
    }
}

/// Number of power-of-two buckets in a [`LatencyHistogram`].
pub const LATENCY_BUCKETS: usize = 64;

/// A deterministic log-bucketed latency distribution.
///
/// Bucket `0` holds the value `0`; bucket `i` (for `1 <= i < 63`) holds
/// values in `[2^(i-1), 2^i - 1]` — i.e. a sample lands in the bucket of its
/// bit length; bucket `63` absorbs everything from `2^62` up. Recording and
/// merging are pure `u64` additions (plus an integer `max`), so merging the
/// same partial histograms in **any order or grouping produces bit-identical
/// results** — the property the sharded driver needs to report one machine
/// total regardless of shard count, executor mode or lookahead mode. There
/// are no floats anywhere in the record/merge/quantile paths.
///
/// Quantiles are nearest-rank over the bucket upper bounds, clamped to the
/// exact recorded maximum, so `quantile_permille(1000)` is the exact max
/// and tail quantiles are conservative (never under-reported) to within a
/// factor of two.
///
/// ```
/// use cni_sim::stats::{LatencyHistogram, Merge};
/// let mut a = LatencyHistogram::new();
/// let mut b = LatencyHistogram::new();
/// for v in [3, 5, 900] { a.record(v); }
/// b.record(17);
/// a.merge(&b);
/// assert_eq!(a.count(), 4);
/// assert_eq!(a.max(), 900);
/// assert_eq!(a.quantile_permille(1000), 900);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a sample of `value` cycles lands in: its bit length,
    /// clamped to the top bucket.
    pub fn bucket_index(value: u64) -> usize {
        let bits = (u64::BITS - value.leading_zeros()) as usize;
        bits.min(LATENCY_BUCKETS - 1)
    }

    /// The largest value bucket `index` can hold (inclusive).
    pub fn bucket_upper_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            i if i >= LATENCY_BUCKETS - 1 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Records one latency sample, in cycles.
    pub fn record(&mut self, cycles: u64) {
        self.buckets[Self::bucket_index(cycles)] += 1;
        self.count += 1;
        // Wrapping keeps the sum associative/commutative even for
        // adversarial full-range samples; realistic cycle latencies never
        // come near 2^64.
        self.sum = self.sum.wrapping_add(cycles);
        self.max = self.max.max(cycles);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples, in cycles.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact largest recorded sample (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The per-bucket sample counts.
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// The `q`‰ quantile (nearest-rank; `q` in `0..=1000`, so p50 is
    /// `500`, p99 is `990`, p99.9 is `999`) as an integer cycle count.
    ///
    /// Returns the containing bucket's upper bound, clamped to the exact
    /// recorded maximum; zero when the histogram is empty. Integer
    /// arithmetic only, so the result is a pure function of the bucket
    /// contents.
    ///
    /// # Panics
    ///
    /// Panics if `q > 1000`.
    pub fn quantile_permille(&self, q: u64) -> u64 {
        assert!(q <= 1000, "quantile out of range: {q}‰");
        if self.count == 0 {
            return 0;
        }
        // Nearest-rank: the smallest rank r (1-based) with r*1000 >= q*count.
        let rank = (q * self.count).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_bound(index).min(self.max);
            }
        }
        self.max
    }
}

impl Merge for LatencyHistogram {
    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_bucket_boundaries_are_pinned_powers_of_two() {
        // The bucket layout is a wire-format-like contract: RESULTS.md
        // quantiles and the cross-shard determinism tests both depend on
        // it, so pin it explicitly.
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(7), 3);
        assert_eq!(LatencyHistogram::bucket_index(8), 4);
        for i in 1..=62 {
            let low = 1u64 << (i - 1);
            let high = (1u64 << i) - 1;
            assert_eq!(LatencyHistogram::bucket_index(low), i, "2^{}", i - 1);
            assert_eq!(LatencyHistogram::bucket_index(high), i, "2^{i} - 1");
        }
        assert_eq!(LatencyHistogram::bucket_index(1 << 62), 63);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 63);
        assert_eq!(LatencyHistogram::bucket_upper_bound(0), 0);
        assert_eq!(LatencyHistogram::bucket_upper_bound(1), 1);
        assert_eq!(LatencyHistogram::bucket_upper_bound(5), 31);
        assert_eq!(LatencyHistogram::bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn latency_quantiles_are_integer_and_clamped_to_max() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_permille(500), 0);
        for v in [10, 10, 10, 900] {
            h.record(v);
        }
        // Ranks 1..=3 land in bucket 4 (values 8..=15, upper bound 15);
        // rank 4 is the exact max.
        assert_eq!(h.quantile_permille(500), 15);
        assert_eq!(h.quantile_permille(750), 15);
        assert_eq!(h.quantile_permille(990), 900);
        assert_eq!(h.quantile_permille(1000), 900);
        // A single-sample histogram reports the exact value everywhere.
        let mut one = LatencyHistogram::new();
        one.record(123_456);
        for q in [0, 500, 990, 999, 1000] {
            assert_eq!(one.quantile_permille(q), 123_456, "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn latency_quantile_rejects_out_of_range() {
        let _ = LatencyHistogram::new().quantile_permille(1001);
    }

    #[test]
    fn latency_merge_is_associative_and_commutative_under_fuzz() {
        use crate::rng::DetRng;
        let mut rng = DetRng::new(0x7A11_1A7E);
        for round in 0..64 {
            // Three random partial histograms with samples spanning the
            // full bucket range (skewed small like real latencies).
            let mut parts = [LatencyHistogram::new(); 3];
            for part in &mut parts {
                for _ in 0..rng.gen_index(40) {
                    let magnitude = rng.gen_index(64) as u32;
                    part.record(rng.next_u64() >> magnitude);
                }
            }
            let [a, b, c] = parts;
            // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            let mut bc = b;
            bc.merge(&c);
            let mut right = a;
            right.merge(&bc);
            assert_eq!(left, right, "associativity, round {round}");
            // a ⊕ b == b ⊕ a
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            assert_eq!(ab, ba, "commutativity, round {round}");
            // And the whole is the fold of the parts, via the trait helper.
            let folded = Merge::merged([a, b, c]);
            assert_eq!(left, folded, "merged() fold, round {round}");
            assert_eq!(
                folded.count(),
                a.count() + b.count() + c.count(),
                "counts add, round {round}"
            );
        }
    }
}
