//! A seeded property driver: `check(cases, seed, gen, prop)` draws `cases`
//! inputs with `gen` and runs `prop` on each, under [`catch_panic`].
//!
//! Every draw is a pure function of `(seed, case, draw counter)` through
//! [`DeterministicHasher`], so a property that fails once fails again
//! every time its test runs with the same literal seed.
//!
//! ## Reading a failure
//!
//! When `prop` panics on a case, the driver shrinks before it reports: it
//! reruns the same `(seed, case)` with a cap on every length drawn through
//! [`Gen::len`], halving the cap while the property still fails (and
//! bisecting back up once it passes), so it ends on the smallest failing
//! cap. It then prints one report to stderr and re-raises the property's
//! own panic from that smallest run:
//!
//! ```text
//! check failed: seed 0x2a, case 17, length cap 3; smallest failing input:
//! [ ... the Debug of the input drawn at that cap ... ]
//! ```
//!
//! Only lengths shrink; the values drawn beside them come from the same
//! stream, so the smallest input is still one the generator can make. The
//! panic messages printed above the report belong to the shrinking reruns;
//! the last one is the failure the report describes.

use crate::hash::DeterministicHasher;
use crate::pool::catch_panic;
use std::fmt::Debug;

/// The random stream one case draws its input from.
#[derive(Debug)]
pub struct Gen {
    hasher: DeterministicHasher,
    draws: u64,
    cap: usize,
    longest: usize,
}

impl Gen {
    fn new(seed: u64, case: u32, cap: usize) -> Self {
        Gen {
            hasher: DeterministicHasher::new(seed).mix(u64::from(case)),
            draws: 0,
            cap,
            longest: 0,
        }
    }

    /// The hasher of the next draw: `(seed, case)` mixed with its count.
    fn draw(&mut self) -> DeterministicHasher {
        self.draws += 1;
        self.hasher.mix(self.draws)
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.draw().value()
    }

    /// A uniform draw in `[0, n)`; 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.draw().below(n)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.draw().unit()
    }

    /// One of `items`, uniformly.
    ///
    /// # Panics
    ///
    /// When `items` is empty.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        let at = self.below(items.len() as u64);
        items[usize::try_from(at).unwrap_or(usize::MAX)].clone()
    }

    /// A length in `[0, max]`, cut to the shrinking cap.
    pub fn len(&mut self, max: usize) -> usize {
        let drawn = self.below((max as u64).saturating_add(1));
        let len = usize::try_from(drawn).unwrap_or(max).min(self.cap);
        self.longest = self.longest.max(len);
        len
    }
}

/// Run `prop` on `cases` inputs drawn by `gen` from `seed`; on a failure,
/// shrink, report and re-raise it (see the [module docs](self)).
pub fn check<T: Debug>(cases: u32, seed: u64, gen: impl Fn(&mut Gen) -> T, prop: impl Fn(T)) {
    for case in 0..cases {
        let run = |cap| {
            let mut g = Gen::new(seed, case, cap);
            let input = gen(&mut g);
            (g.longest, catch_panic(|| prop(input)).err())
        };
        let (longest, Some(mut payload)) = run(usize::MAX) else {
            continue;
        };
        // `hi` is the smallest cap known to fail, `lo` the smallest that
        // might; the first probe halves `hi`.
        let (mut lo, mut hi) = (0, longest);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match run(mid).1 {
                Some(smaller) => (payload, hi) = (smaller, mid),
                None => lo = mid + 1,
            }
        }
        let input = gen(&mut Gen::new(seed, case, hi));
        eprintln!(
            "check failed: seed {seed:#x}, case {case}, length cap {hi}; \
             smallest failing input:\n{input:#?}"
        );
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn draws_are_a_function_of_seed_and_case() {
        let draw = |seed, case| {
            let mut g = Gen::new(seed, case, usize::MAX);
            (g.next_u64(), g.below(10), g.len(5), g.pick(&['a', 'b']))
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        assert_ne!(draw(1, 2), draw(2, 2));
        let mut g = Gen::new(3, 0, usize::MAX);
        for _ in 0..1000 {
            assert!(g.below(7) < 7);
            assert!((0.0..1.0).contains(&g.unit()));
            assert!(g.len(4) <= 4);
        }
        assert_eq!(g.below(0), 0);
        let uncapped = Gen::new(3, 0, usize::MAX).len(1000);
        assert_eq!(Gen::new(3, 0, 2).len(1000), uncapped.min(2));
    }

    #[test]
    fn a_holding_property_runs_every_case() {
        let runs = Cell::new(0);
        check(
            32,
            5,
            |g| g.len(10),
            |len| {
                assert!(len <= 10);
                runs.set(runs.get() + 1);
            },
        );
        assert_eq!(runs.get(), 32);
    }

    /// A property failing on every vector of three or more elements is
    /// reported on one of at most four, with its own panic message.
    #[test]
    fn a_failure_shrinks_to_a_short_input_and_keeps_its_payload() {
        let shortest = Cell::new(usize::MAX);
        let outcome = catch_panic(|| {
            check(
                64,
                7,
                |g| (0..g.len(100)).map(|_| g.next_u64()).collect::<Vec<_>>(),
                |v| {
                    if v.len() >= 3 {
                        shortest.set(shortest.get().min(v.len()));
                        panic!("{} elements", v.len());
                    }
                },
            )
        });
        let payload = outcome.expect_err("the property fails");
        let message = crate::pool::panic_message(&payload);
        assert!((3..=4).contains(&shortest.get()), "{}", shortest.get());
        assert_eq!(message, format!("{} elements", shortest.get()));
    }
}
