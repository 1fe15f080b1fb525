//! §6.4 — overhead of configuring storage formats: heuristic-based
//! coalescing versus exhaustive enumeration of CF-set partitions (on the
//! 12 consumption formats of query B) and versus distance-based selection
//! (on the full 24-consumer set), comparing profiling runs, modelled time
//! and the storage cost of the resulting format sets.

use std::time::Instant;
use vstore_bench::{accuracy_levels, paper_profiler, print_table};
use vstore_core::profiler::Profiler;
use vstore_core::{CfSearch, CoalesceStrategy, Coalescer, DerivedCf};
use vstore_types::{Consumer, OperatorKind};

fn derive_cfs(profiler: &Profiler, ops: &[OperatorKind]) -> Vec<DerivedCf> {
    let search = CfSearch::new(profiler);
    ops.iter()
        .flat_map(|&op| {
            accuracy_levels()
                .into_iter()
                .map(move |a| Consumer::new(op, a))
                .collect::<Vec<_>>()
        })
        .map(|c| search.derive(c).expect("cf derivation"))
        .collect()
}

fn main() {
    let profiler = paper_profiler();

    // Query B's 12 consumers (3 operators × 4 accuracies), as in the paper's
    // exhaustive-comparison experiment.
    let query_b_cfs = derive_cfs(
        &profiler,
        &[
            OperatorKind::Motion,
            OperatorKind::License,
            OperatorKind::Ocr,
        ],
    );
    // The full evaluation set (24 consumers).
    let all_cfs = derive_cfs(&profiler, &OperatorKind::QUERY_OPS);

    let mut rows = Vec::new();
    for (label, cfs, strategy) in [
        (
            "heuristic (12 CFs, query B)",
            &query_b_cfs,
            CoalesceStrategy::Heuristic,
        ),
        (
            "distance-based (12 CFs, query B)",
            &query_b_cfs,
            CoalesceStrategy::DistanceBased,
        ),
        (
            "heuristic (all 24 consumers)",
            &all_cfs,
            CoalesceStrategy::Heuristic,
        ),
        (
            "distance-based (all 24 consumers)",
            &all_cfs,
            CoalesceStrategy::DistanceBased,
        ),
    ] {
        let before = profiler.stats();
        let started = Instant::now();
        let result = Coalescer::new(&profiler)
            .with_strategy(strategy)
            .derive(cfs)
            .expect("coalesce");
        let elapsed = started.elapsed();
        let after = profiler.stats();
        rows.push(vec![
            label.to_owned(),
            result.formats.len().to_string(),
            result.rounds.to_string(),
            (after.storage_runs - before.storage_runs).to_string(),
            (after.storage_cache_hits - before.storage_cache_hits).to_string(),
            format!("{:.0} KB/s", result.total_bytes_per_video_second.kib()),
            format!("{:.2} cores", result.total_ingest_cores),
            format!("{:.2} s", elapsed.as_secs_f64()),
        ]);
    }
    print_table(
        "Section 6.4: storage-format configuration — strategies compared",
        &[
            "strategy",
            "SFs",
            "merges",
            "new SF profiles",
            "memoised hits",
            "total storage",
            "ingest cost",
            "wall-clock",
        ],
        &rows,
    );
    println!(
        "\n(15K possible storage formats exist in the full knob space; the number of freshly\n profiled formats above is the fraction §6.4 reports as ~3 %, with memoisation\n absorbing repeated examinations.)"
    );
}
