//! Order statistics over latency samples and per-round rates.

/// Percentiles a tail may be reported at, highest first. Nothing above
/// p95: between identical runs on a 2-core sandbox p99 moves too much to
/// be read.
const TAIL_LADDER: [f64; 4] = [95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
const SAMPLES_BEYOND: usize = 10;

/// Sort ascending (NaN-free inputs; `total_cmp` keeps it total anyway).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Nearest-rank percentile of ascending `sorted` (`0.0` when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank_of(pct, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Samples at or below the `pct`-th percentile of `samples` (nearest rank).
/// The epsilon keeps a product that is a whole number a hair above it in
/// binary from rounding up to the next rank.
fn rank_of(pct: f64, samples: usize) -> usize {
    (pct * samples as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// The median (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The highest percentile of the ladder that still has at least ten of
/// `samples` beyond it; `None` below 20 samples, where not even the
/// median does.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&pct| samples.saturating_sub(rank_of(pct, samples)) >= SAMPLES_BEYOND)
}

/// `(tail value, its percentile)` of ascending `sorted`, at the highest
/// supported percentile; `(0, 0)` when none is supported.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    match highest_supported_percentile(sorted.len()) {
        Some(pct) => (percentile(sorted, pct), pct),
        None => (0.0, 0.0),
    }
}

/// First and third quartile of `values` by nearest rank (`(0, 0)` when
/// empty): how far the rounds of a run lie apart.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values.to_vec());
    (percentile(&sorted, 25.0), percentile(&sorted, 75.0))
}

/// Where among the per-round values, counted from the best, the reported
/// one is taken: the tenth percentile.
const QUIET_PCT: f64 = 10.0;

/// The value a tenth of the way from the best to the worst of per-round
/// `values`: the second lowest of 20 latencies, the second highest of 20
/// rates, the best of 3. On a shared host interference comes in bursts
/// that last seconds, and it only ever slows a round down, so the rounds
/// on the better side are the undisturbed ones; a value taken there stays
/// put until nine rounds in ten are disturbed, where a median gives way at
/// five. It is not the very best round, which one lucky second decides. A
/// change to the program moves every round, and this value with them.
pub fn quiet(values: &[f64], higher_is_better: bool) -> f64 {
    let mut best_first = sorted(values.to_vec());
    if higher_is_better {
        best_first.reverse();
    }
    percentile(&best_first, QUIET_PCT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 95.0), 95.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0]), 1.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(10_000), Some(95.0));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values), (950.0, 95.0));
        assert_eq!(tail(&values[..100]), (90.0, 90.0));
        assert_eq!(tail(&values[..5]), (0.0, 0.0));
    }

    #[test]
    fn the_quiet_value_ignores_disturbed_rounds() {
        assert_eq!(quartiles(&[5.0, 1.0, 2.0, 4.0, 3.0]), (2.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0));
        // Twenty rounds, sixteen of them hit by a burst: latencies double
        // and rates halve there. The reported value is the second best
        // round's, not the lucky best one's and not a disturbed one's.
        let mut latency = vec![6.0; 16];
        latency.extend([2.5, 3.0, 3.1, 3.2]);
        assert_eq!(quiet(&latency, false), 3.0);
        let mut rate = vec![50.0; 16];
        rate.extend([120.0, 100.0, 99.0, 98.0]);
        assert_eq!(quiet(&rate, true), 100.0);
        // Three set-ups: the best one.
        assert_eq!(quiet(&[61.0, 55.0, 70.0], false), 55.0);
        assert_eq!(quiet(&[130.0, 145.0, 110.0], true), 145.0);
        assert_eq!(quiet(&[], false), 0.0);
    }
}
