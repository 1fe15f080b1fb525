//! The seeded request generator. The store under test only ever sees the
//! requests produced here; `--seed` drives nothing else.

use crate::spec::{Workload, MIX_QUERIES_PER_INGEST, MIX_RECENT_SEGMENTS, WINDOW_SEGMENTS};

/// SplitMix64: tiny, seedable, and good enough to pick window starts.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias over 2^64 is far below
    /// anything a few thousand draws could show).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One operation a client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Query the window of [`WINDOW_SEGMENTS`] segments starting here.
    Query { first_segment: u64 },
    /// Ingest this one segment at the head of the client's stream.
    Ingest { segment: u64 },
}

/// The request sequence of the client of one workload.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    rng: Rng,
    /// Scan workloads: window starts over the preloaded segments.
    starts: u64,
    /// `scan_uncached` / `scan_cached`: a seeded permutation of the starts,
    /// cycled so that every window is visited equally often.
    cycle: Vec<u64>,
    position: usize,
    /// `ingest_query_mix`: segments acknowledged on the stream.
    head: u64,
    /// `ingest_query_mix`: queries left before the next ingest.
    queries_left: usize,
}

impl Generator {
    /// The generator under `seed`, over a stream that holds `preload`
    /// segments.
    pub fn new(workload: Workload, seed: u64, preload: u64) -> Generator {
        let mut rng = Rng::new(seed);
        let starts = preload - WINDOW_SEGMENTS + 1;
        let mut cycle: Vec<u64> = (0..starts).collect();
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Generator {
            workload,
            rng,
            starts,
            cycle,
            position: 0,
            head: preload,
            queries_left: 0,
        }
    }

    /// Segments on the stream once every generated ingest has been
    /// acknowledged.
    pub fn head(&self) -> u64 {
        self.head
    }

    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::ScanUncached | Workload::ScanCached => {
                let first_segment = self.cycle[self.position];
                self.position = (self.position + 1) % self.cycle.len();
                Op::Query { first_segment }
            }
            Workload::ScanThrash => {
                // The minimum of three uniform draws: P(start <= x) rises as
                // 1 - (1 - x)^3, so low starts stay hot in a small cache.
                let draw = (0..3).map(|_| self.rng.below(self.starts)).min();
                Op::Query {
                    first_segment: draw.unwrap_or(0),
                }
            }
            Workload::IngestQueryMix => {
                if self.queries_left == 0 {
                    self.queries_left = MIX_QUERIES_PER_INGEST;
                    let segment = self.head;
                    self.head += 1;
                    return Op::Ingest { segment };
                }
                self.queries_left -= 1;
                let recent = self.head.min(MIX_RECENT_SEGMENTS);
                let oldest = self.head - recent;
                Op::Query {
                    first_segment: oldest + self.rng.below(recent - WINDOW_SEGMENTS + 1),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(generator: &mut Generator, n: usize) -> Vec<Op> {
        (0..n).map(|_| generator.next_op()).collect()
    }

    #[test]
    fn same_seed_same_sequence_and_other_seed_differs() {
        for workload in Workload::ALL {
            let a = take(&mut Generator::new(workload, 7, 32), 200);
            let b = take(&mut Generator::new(workload, 7, 32), 200);
            assert_eq!(a, b, "{}", workload.name());
            let other_seed = take(&mut Generator::new(workload, 8, 32), 200);
            assert_ne!(a, other_seed, "{}", workload.name());
        }
    }

    #[test]
    fn scans_cycle_over_every_window_start() {
        let mut generator = Generator::new(Workload::ScanCached, 3, 32);
        let ops = take(&mut generator, 58);
        for start in 0..29 {
            let hits = ops
                .iter()
                .filter(|op| {
                    **op == Op::Query {
                        first_segment: start,
                    }
                })
                .count();
            assert_eq!(hits, 2, "start {start}");
        }
    }

    #[test]
    fn skewed_draw_stays_in_range_and_favours_low_starts() {
        let mut generator = Generator::new(Workload::ScanThrash, 11, 32);
        let mut low = 0;
        for op in take(&mut generator, 3000) {
            let Op::Query { first_segment } = op else {
                panic!("scan_thrash only queries");
            };
            assert!(first_segment < 29);
            if first_segment < 10 {
                low += 1;
            }
        }
        // P(min of three < 10/29) = 1 - (19/29)^3 = 0.72.
        assert!((2000..2400).contains(&low), "{low}");
    }

    #[test]
    fn mix_ingests_at_the_head_then_queries_recent_windows() {
        let mut generator = Generator::new(Workload::IngestQueryMix, 5, 8);
        assert_eq!(generator.next_op(), Op::Ingest { segment: 8 });
        let (mut head, mut cycle) = (9, 0);
        for _ in 0..9000 {
            match generator.next_op() {
                Op::Ingest { segment } => {
                    assert_eq!(segment, head);
                    assert_eq!(cycle, MIX_QUERIES_PER_INGEST, "queries in a cycle");
                    head += 1;
                    cycle = 0;
                }
                Op::Query { first_segment } => {
                    assert!(first_segment + WINDOW_SEGMENTS <= head);
                    assert!(first_segment + MIX_RECENT_SEGMENTS.min(head) >= head);
                    cycle += 1;
                }
            }
            assert_eq!(generator.head(), head);
        }
        // One ingest per eight queries: 1000 cycles of nine operations.
        assert_eq!(head, 9 + 1000);
    }
}
