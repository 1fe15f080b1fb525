// True negative: both paths acquire alpha before beta — a consistent
// global order, so the graph has edges but no cycle. `disjoint` drops its
// first guard before taking the second, contributing no edge at all.
use std::sync::Mutex;
use vstore_types::sync::lock_unpoisoned;

pub struct Pair {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Pair {
    pub fn sum(&self) -> u32 {
        let a = lock_unpoisoned(&self.alpha);
        let b = lock_unpoisoned(&self.beta);
        *a + *b
    }

    pub fn difference(&self) -> u32 {
        let a = lock_unpoisoned(&self.alpha);
        let b = lock_unpoisoned(&self.beta);
        *a - *b
    }

    pub fn disjoint(&self) -> u32 {
        let first = {
            let b = lock_unpoisoned(&self.beta);
            *b
        };
        let a = lock_unpoisoned(&self.alpha);
        *a + first
    }
}
