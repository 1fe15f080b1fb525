//! A fixed-size power-of-two latency histogram, shared by the serving
//! front end (queue wait / per-kind execution latency) and the storage
//! tiering subsystem (cold-hit latency).
//!
//! Additions saturate (a pinned counter degrades, never panics), and every
//! derived quantity is 0 when nothing has been recorded — never NaN.

/// Number of power-of-two latency buckets.
///
/// Bucket boundaries, precisely:
///
/// * bucket `0` holds only `0 µs` samples;
/// * bucket `i` for `1 ≤ i ≤ 30` holds samples in `[2^(i-1), 2^i)` µs —
///   so the bucket's reported upper bound `2^i` is exclusive;
/// * bucket `31` collects everything `≥ 2^30 µs` (≈ 17.9 minutes), and
///   its reported bound `2^31 µs` (≈ 35.8 minutes) understates samples
///   beyond it — [`LatencyHistogram::max_us`] keeps the true maximum.
pub const HISTOGRAM_BUCKETS: usize = 32;
const BUCKETS: usize = HISTOGRAM_BUCKETS;

/// A fixed-size power-of-two latency histogram over microseconds.
///
/// Recording is O(1), merging is element-wise, and percentiles are answered
/// as the upper bound of the bucket containing the requested rank — exact
/// enough for an operator report, with no allocation anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// Record one sample in microseconds.
    pub fn record(&mut self, micros: u64) {
        let bucket = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket] = self.buckets[bucket].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.total_us = self.total_us.saturating_add(micros);
        self.max_us = self.max_us.max(micros);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency in microseconds (0 when empty — never NaN).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }

    /// Largest recorded sample in microseconds.
    #[must_use]
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Upper bound (µs) of the bucket holding the `p`-quantile sample
    /// (`p` in `[0, 1]`, values outside are clamped). 0 when empty.
    ///
    /// Edge cases, pinned by tests: `p = 0.0` ranks at the **first**
    /// sample (the smallest bucket's bound — not 0 unless a 0 µs sample
    /// exists); `p = 1.0` ranks at the last sample, answering the
    /// largest populated bucket's bound (see [`HISTOGRAM_BUCKETS`] for
    /// the exact boundaries). When every sample shares one bucket, all
    /// quantiles answer that bucket's bound.
    #[must_use]
    pub fn quantile_us(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                // Bucket i holds samples < 2^i µs (i == 0 holds 0 µs).
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max_us
    }

    /// The raw parts `(buckets, count, total_us, max_us)` — what a wire
    /// codec serialises. Reassemble with [`from_parts`](Self::from_parts).
    #[must_use]
    pub fn to_parts(&self) -> ([u64; HISTOGRAM_BUCKETS], u64, u64, u64) {
        (self.buckets, self.count, self.total_us, self.max_us)
    }

    /// Rebuild a histogram from the raw parts produced by
    /// [`to_parts`](Self::to_parts).
    #[must_use]
    pub fn from_parts(
        buckets: [u64; HISTOGRAM_BUCKETS],
        count: u64,
        total_us: u64,
        max_us: u64,
    ) -> Self {
        LatencyHistogram {
            buckets,
            count,
            total_us,
            max_us,
        }
    }

    /// Merge another histogram into this one (element-wise, saturating).
    pub fn accumulate(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.total_us = self.total_us.saturating_add(other.total_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_answers_quantiles() {
        let mut h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile_us(0.99), 0);
        for us in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max_us(), 100_000);
        assert!(h.mean_us() > 0.0);
        // p50 falls in a small bucket, p99 near the top sample.
        assert!(h.quantile_us(0.5) <= 128);
        assert!(h.quantile_us(0.99) >= 100_000 / 2);
        assert!(h.quantile_us(1.0) >= h.quantile_us(0.5));
    }

    #[test]
    fn histogram_merge_is_element_wise_and_saturating() {
        let mut a = LatencyHistogram::default();
        a.record(10);
        let mut b = LatencyHistogram::default();
        b.record(1000);
        b.count = u64::MAX; // pinned counter must not wrap the merge
        a.accumulate(&b);
        assert_eq!(a.count, u64::MAX);
        assert_eq!(a.max_us(), 1000);
    }

    #[test]
    fn raw_parts_round_trip() {
        let mut h = LatencyHistogram::default();
        for us in [0u64, 7, 4096, u64::MAX] {
            h.record(us);
        }
        let (buckets, count, total, max) = h.to_parts();
        assert_eq!(LatencyHistogram::from_parts(buckets, count, total, max), h);
    }

    /// The quantile edge cases the doc comment promises: p = 0.0 ranks at
    /// the first sample, p = 1.0 at the last, both clamped from outside
    /// `[0, 1]`, and an empty histogram answers 0 everywhere.
    #[test]
    fn quantile_extremes_rank_at_first_and_last_sample() {
        let empty = LatencyHistogram::default();
        assert_eq!(empty.quantile_us(0.0), 0);
        assert_eq!(empty.quantile_us(1.0), 0);

        let mut h = LatencyHistogram::default();
        h.record(3); // bucket 2, bound 4
        h.record(1000); // bucket 10, bound 1024
                        // p = 0.0 clamps the rank to the first sample: the smallest
                        // populated bucket's bound, not 0.
        assert_eq!(h.quantile_us(0.0), 4);
        assert_eq!(h.quantile_us(-1.0), 4);
        // p = 1.0 ranks at the last sample: the largest populated bound.
        assert_eq!(h.quantile_us(1.0), 1024);
        assert_eq!(h.quantile_us(2.0), 1024);
        // A recorded 0 µs sample makes the 0-quantile genuinely 0.
        h.record(0);
        assert_eq!(h.quantile_us(0.0), 0);
    }

    /// With every sample in one bucket, all quantiles collapse to that
    /// bucket's (exclusive) upper bound.
    #[test]
    fn single_bucket_answers_every_quantile_with_its_bound() {
        let mut h = LatencyHistogram::default();
        for _ in 0..5 {
            h.record(700); // bucket 10: [512, 1024)
        }
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(p), 1024, "p={p}");
        }
        assert_eq!(h.max_us(), 700);
    }

    /// Saturated accumulate: merging pinned counters and totals degrades
    /// to the ceiling instead of wrapping, and quantiles stay answerable.
    #[test]
    fn saturated_accumulate_pins_without_wrapping() {
        let mut a = LatencyHistogram::default();
        a.record(u64::MAX); // pins total_us and lands in the top bucket
        let mut b = LatencyHistogram::default();
        b.record(u64::MAX);
        b.record(1);
        a.accumulate(&b);
        let (_, count, total, max) = a.to_parts();
        assert_eq!(count, 3);
        assert_eq!(total, u64::MAX);
        assert_eq!(max, u64::MAX);
        // Two of three samples sit in the overflow bucket; p99 answers
        // its bound, and repeated self-merges saturate bucket counts.
        assert!(a.quantile_us(0.99) >= 1u64 << 31);
        let clone = a.clone();
        for _ in 0..3 {
            a.accumulate(&clone.clone());
        }
        assert!(a.count() > 3);
    }

    /// Everything a report reads off an empty histogram is 0, never NaN.
    #[test]
    fn empty_histogram_renders_idle_without_nan() {
        let h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.max_us(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 0, "q={q}");
        }
        let mut merged = LatencyHistogram::default();
        merged.accumulate(&h);
        assert!(merged.is_empty() && merged.mean_us() == 0.0);
    }
}
