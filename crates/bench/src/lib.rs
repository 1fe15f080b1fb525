//! # vstore-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation, plus `e2e_bench` (`src/bin/e2e_bench/`, with its own
//! README), the workspace's one timing harness.
//!
//! This library holds the helpers the experiment binaries share: standard
//! profiler/engine construction, the paper's consumer set, and plain-text
//! table formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use vstore_core::profiler::{Profiler, ProfilerConfig};
use vstore_core::{ConfigurationEngine, EngineOptions};
use vstore_ops::OperatorLibrary;
use vstore_sim::CodingCostModel;
use vstore_types::{Consumer, FidelitySpace, OperatorKind, DEFAULT_ACCURACY_LEVELS};

/// The profiler configured as in §6.1: query-A operators profiled on
/// `jackson`, query-B operators on `dashcam`, 10-second clips.
pub fn paper_profiler() -> Arc<Profiler> {
    Arc::new(Profiler::new(
        OperatorLibrary::paper_testbed(),
        CodingCostModel::paper_testbed(),
        ProfilerConfig::paper_evaluation(),
    ))
}

/// A faster profiler (3-second clips) for the heavier end-to-end sweeps.
pub fn fast_profiler() -> Arc<Profiler> {
    Arc::new(Profiler::new(
        OperatorLibrary::paper_testbed(),
        CodingCostModel::paper_testbed(),
        ProfilerConfig::fast_test(),
    ))
}

/// The paper's 24-consumer evaluation set: the six query operators, each at
/// accuracy levels {0.95, 0.9, 0.8, 0.7}.
pub fn evaluation_consumers() -> Vec<Consumer> {
    Consumer::evaluation_set()
}

/// The six query operators in table order.
pub fn query_operators() -> [OperatorKind; 6] {
    OperatorKind::QUERY_OPS
}

/// The paper's accuracy levels.
pub fn accuracy_levels() -> Vec<f64> {
    DEFAULT_ACCURACY_LEVELS.iter().map(|a| a.value()).collect()
}

/// A configuration engine over the full Table-1 knob spaces.
pub fn paper_engine(profiler: Arc<Profiler>) -> ConfigurationEngine {
    ConfigurationEngine::new(profiler, EngineOptions::default())
}

/// A configuration engine over the reduced fidelity space (for the heavier
/// end-to-end sweeps where the full space would only add wall-clock time).
pub fn reduced_engine(profiler: Arc<Profiler>) -> ConfigurationEngine {
    ConfigurationEngine::new(
        profiler,
        EngineOptions {
            fidelity_space: FidelitySpace::reduced(),
            ..EngineOptions::default()
        },
    )
}

/// Print a plain-text table with aligned columns.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                format!(
                    "{cell:<width$}",
                    width = widths.get(i).copied().unwrap_or(0)
                )
            })
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Format a speed factor the way the paper does (e.g. `362x`, `3.5x`).
pub fn fmt_speed(factor: f64) -> String {
    if factor >= 100.0 {
        format!("{:.0}x", factor)
    } else if factor >= 10.0 {
        format!("{:.1}x", factor)
    } else {
        format!("{:.2}x", factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumer_set_and_levels_match_paper() {
        assert_eq!(evaluation_consumers().len(), 24);
        assert_eq!(accuracy_levels(), vec![0.95, 0.9, 0.8, 0.7]);
        assert_eq!(query_operators().len(), 6);
    }

    #[test]
    fn speed_formatting() {
        assert_eq!(fmt_speed(362.4), "362x");
        assert_eq!(fmt_speed(23.4), "23.4x");
        assert_eq!(fmt_speed(4.04), "4.04x");
    }
}
