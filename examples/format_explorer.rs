//! Explore the knob space interactively from the command line: profile one
//! operator across a sweep of fidelities and print the accuracy / cost
//! trade-off table VStore's configuration engine navigates (a miniature
//! version of Figure 4 for any operator).
//!
//! ```sh
//! cargo run --release --example format_explorer            # defaults to License
//! cargo run --release --example format_explorer -- NN      # any Table-2 operator
//! ```

use vstore_core::profiler::{Profiler, ProfilerConfig};
use vstore_ops::OperatorLibrary;
use vstore_sim::CodingCostModel;
use vstore_types::{
    CodingOption, CropFactor, Fidelity, FrameSampling, ImageQuality, OperatorKind, Resolution,
    StorageFormat,
};

fn parse_operator(name: &str) -> Option<OperatorKind> {
    OperatorKind::ALL
        .into_iter()
        .find(|op| op.name().eq_ignore_ascii_case(name))
}

fn main() {
    let op = std::env::args()
        .nth(1)
        .and_then(|name| parse_operator(&name))
        .unwrap_or(OperatorKind::License);
    let profiler = Profiler::new(
        OperatorLibrary::paper_testbed(),
        CodingCostModel::paper_testbed(),
        ProfilerConfig::paper_evaluation(),
    );
    println!(
        "operator: {op}  (profiled on {})",
        profiler.config().dataset_for(op)
    );
    println!(
        "{:<28} {:>9} {:>14} {:>14} {:>14}",
        "fidelity", "F1", "consume (x rt)", "storage KB/s", "ingest cores"
    );
    for quality in [ImageQuality::Best, ImageQuality::Good, ImageQuality::Bad] {
        for resolution in [
            Resolution::R720,
            Resolution::R540,
            Resolution::R400,
            Resolution::R200,
            Resolution::R100,
        ] {
            for sampling in [
                FrameSampling::Full,
                FrameSampling::S1_6,
                FrameSampling::S1_30,
            ] {
                let fidelity = Fidelity::new(quality, CropFactor::C100, resolution, sampling);
                let consumer = profiler
                    .profile_consumer(op, fidelity)
                    .expect("the profiling clip degrades to every fidelity");
                let storage =
                    profiler.profile_storage(StorageFormat::new(fidelity, CodingOption::SMALLEST));
                println!(
                    "{:<28} {:>9.3} {:>14.1} {:>14.0} {:>14.2}",
                    fidelity.label(),
                    consumer.accuracy,
                    consumer.consumption_speed.factor(),
                    storage.bytes_per_video_second.kib(),
                    storage.encode_cores
                );
            }
        }
    }
    let stats = profiler.stats();
    println!(
        "\n{} profiling runs, modelled profiling delay {:.0} s (memoisation hits: {})",
        stats.operator_runs, stats.modeled_seconds, stats.operator_cache_hits
    );
}
