//! Figure 14 — overhead of deriving consumption formats: profiling runs and
//! modelled profiling time for VStore's boundary search versus exhaustive
//! profiling of the whole fidelity space, per operator.

use vstore_bench::{accuracy_levels, print_table, query_operators};
use vstore_core::profiler::{Profiler, ProfilerConfig};
use vstore_core::CfSearch;
use vstore_ops::OperatorLibrary;
use vstore_sim::CodingCostModel;
use vstore_types::Consumer;

fn fresh_profiler() -> Profiler {
    Profiler::new(
        OperatorLibrary::paper_testbed(),
        CodingCostModel::paper_testbed(),
        ProfilerConfig::paper_evaluation(),
    )
}

fn main() {
    let mut rows = Vec::new();
    let mut total_guided_runs = 0usize;
    let mut total_guided_seconds = 0.0;
    let mut total_exhaustive_runs = 0usize;
    let mut total_exhaustive_seconds = 0.0;

    for &op in &query_operators() {
        // Guided search: all four accuracy levels of this operator, sharing
        // one memoising profiler (as VStore does).
        let guided = fresh_profiler();
        {
            let search = CfSearch::new(&guided);
            for accuracy in accuracy_levels() {
                search
                    .derive(Consumer::new(op, accuracy))
                    .expect("guided derivation");
            }
        }
        let guided_stats = guided.stats();

        // Exhaustive baseline: profile every fidelity option once (results
        // are shared across accuracy levels, so one pass suffices).
        let exhaustive = fresh_profiler();
        {
            let search = CfSearch::new(&exhaustive);
            search
                .derive_exhaustive(Consumer::new(op, accuracy_levels()[0]))
                .expect("exhaustive derivation");
        }
        let exhaustive_stats = exhaustive.stats();

        total_guided_runs += guided_stats.operator_runs;
        total_guided_seconds += guided_stats.modeled_seconds;
        total_exhaustive_runs += exhaustive_stats.operator_runs;
        total_exhaustive_seconds += exhaustive_stats.modeled_seconds;
        rows.push(vec![
            op.to_string(),
            exhaustive_stats.operator_runs.to_string(),
            format!("{:.0}", exhaustive_stats.modeled_seconds),
            guided_stats.operator_runs.to_string(),
            format!("{:.0}", guided_stats.modeled_seconds),
            format!(
                "{:.1}x / {:.1}x",
                exhaustive_stats.operator_runs as f64 / guided_stats.operator_runs.max(1) as f64,
                exhaustive_stats.modeled_seconds / guided_stats.modeled_seconds.max(1e-9)
            ),
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        total_exhaustive_runs.to_string(),
        format!("{total_exhaustive_seconds:.0}"),
        total_guided_runs.to_string(),
        format!("{total_guided_seconds:.0}"),
        format!(
            "{:.1}x / {:.1}x",
            total_exhaustive_runs as f64 / total_guided_runs.max(1) as f64,
            total_exhaustive_seconds / total_guided_seconds.max(1e-9)
        ),
    ]);
    print_table(
        "Figure 14: consumption-format derivation overhead (all 4 accuracy levels per operator)",
        &[
            "operator",
            "exhaustive runs",
            "exhaustive time (s, modelled)",
            "VStore runs",
            "VStore time (s, modelled)",
            "reduction (runs / time)",
        ],
        &rows,
    );
}
