// True positive: `forward` acquires alpha then beta, `backward` acquires
// beta then alpha — a 2-cycle in the lock graph.
use std::sync::Mutex;
use vstore_types::sync::lock_unpoisoned;

pub struct Pair {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Pair {
    pub fn forward(&self) -> u32 {
        let a = lock_unpoisoned(&self.alpha);
        let b = lock_unpoisoned(&self.beta);
        *a + *b
    }

    pub fn backward(&self) -> u32 {
        let b = lock_unpoisoned(&self.beta);
        let a = lock_unpoisoned(&self.alpha);
        *a - *b
    }
}
