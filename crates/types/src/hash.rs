//! Deterministic, splittable hashing.
//!
//! The synthetic substrate (content generation, operator detection draws)
//! needs reproducible pseudo-randomness that is a pure function of stable
//! identifiers — the same `(stream, frame, object, knob)` tuple must always
//! produce the same draw, across runs and regardless of evaluation order.
//! Threading an RNG through every code path would make results depend on
//! iteration order, so we hash instead.
//!
//! The mixer is SplitMix64, which passes BigCrush and is more than good
//! enough for workload synthesis.
//!
//! The same hasher routes segment keys to shards
//! (`SegmentStore::shard_index`), so its output is also an **on-disk
//! fact**: changing the constants, the seed folding or the mix order
//! strands every stored segment in the wrong shard. A storage test pins
//! literal values; treat this file as a format definition.

/// A deterministic hasher: fold in integers, then extract uniform values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterministicHasher {
    state: u64,
}

/// SplitMix64 finalizer: one round of strong mixing.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DeterministicHasher {
    /// Create a hasher from a seed.
    pub fn new(seed: u64) -> Self {
        DeterministicHasher {
            state: splitmix64(seed ^ 0xA076_1D64_78BD_642F),
        }
    }

    /// Fold another value into the state, returning a new hasher.
    #[must_use]
    pub fn mix(self, value: u64) -> Self {
        DeterministicHasher {
            state: splitmix64(self.state ^ value.rotate_left(17)),
        }
    }

    /// Fold a string into the state, returning a new hasher.
    #[must_use]
    pub fn mix_str(self, s: &str) -> Self {
        let mut h = self;
        for chunk in s.as_bytes().chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            h = h.mix(u64::from_le_bytes(buf));
        }
        h.mix(s.len() as u64)
    }

    /// The current 64-bit hash value.
    pub fn value(&self) -> u64 {
        self.state
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&self) -> f64 {
        // Use the top 53 bits for a uniformly distributed double.
        (self.state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `[lo, hi)`.
    pub fn uniform(&self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// A uniform integer draw in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            // Multiplicative range reduction avoids modulo bias for the
            // magnitudes used here.
            ((u128::from(self.state) * u128::from(n)) >> 64) as u64
        }
    }

    /// A Bernoulli draw with probability `p`.
    pub fn bernoulli(&self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// An approximately standard-normal draw (sum of uniforms, Irwin–Hall
    /// with 4 terms — adequate for content jitter).
    pub fn gaussian(&self) -> f64 {
        let a = self.unit();
        let b = self.mix(0x5bd1_e995).unit();
        let c = self.mix(0x9747_b28c).unit();
        let d = self.mix(0x1656_67b1).unit();
        ((a + b + c + d) - 2.0) * (12.0f64 / 4.0).sqrt()
    }
}

/// Convenience: hash a slice of values into a single draw in `[0, 1)`.
pub fn unit_hash(seed: u64, values: &[u64]) -> f64 {
    let mut h = DeterministicHasher::new(seed);
    for v in values {
        h = h.mix(*v);
    }
    h.unit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let a = DeterministicHasher::new(42).mix(7).mix(13).value();
        let b = DeterministicHasher::new(42).mix(7).mix(13).value();
        assert_eq!(a, b);
        assert_ne!(a, DeterministicHasher::new(42).mix(13).mix(7).value());
    }

    #[test]
    fn unit_values_in_range_and_spread() {
        let mut low = 0usize;
        let n = 10_000u64;
        for i in 0..n {
            let u = DeterministicHasher::new(1).mix(i).unit();
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                low += 1;
            }
        }
        // Roughly balanced around 0.5.
        assert!((4500..5500).contains(&low), "low half count {low}");
    }

    #[test]
    fn below_is_bounded() {
        for i in 0..1000u64 {
            let v = DeterministicHasher::new(9).mix(i).below(17);
            assert!(v < 17);
        }
        assert_eq!(DeterministicHasher::new(9).below(0), 0);
    }

    #[test]
    fn mix_str_differs_by_content() {
        let a = DeterministicHasher::new(3).mix_str("jackson").value();
        let b = DeterministicHasher::new(3).mix_str("dashcam").value();
        assert_ne!(a, b);
        let c = DeterministicHasher::new(3).mix_str("jackson").value();
        assert_eq!(a, c);
    }

    #[test]
    fn bernoulli_tracks_probability() {
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|i| DeterministicHasher::new(5).mix(*i).bernoulli(0.3))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn gaussian_has_zero_mean_unit_scale() {
        let n = 20_000u64;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for i in 0..n {
            let g = DeterministicHasher::new(8).mix(i).gaussian();
            sum += g;
            sumsq += g * g;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn unit_hash_helper() {
        assert_eq!(unit_hash(1, &[1, 2, 3]), unit_hash(1, &[1, 2, 3]));
        assert_ne!(unit_hash(1, &[1, 2, 3]), unit_hash(2, &[1, 2, 3]));
    }
}
