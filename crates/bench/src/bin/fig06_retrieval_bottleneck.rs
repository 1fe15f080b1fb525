//! Figure 6 — video retrieval can bottleneck consumption.
//!
//! (a) Operator: License. Consumption can outpace decoding when the on-disk
//!     video is stored at the richest (ingestion) fidelity, but not when the
//!     stored fidelity matches the consumed one.
//! (b) Operator: Motion. Consumption outpaces decoding even when the stored
//!     fidelity matches — these consumers need the RAW bypass.

use vstore_bench::{fmt_speed, paper_profiler, print_table};
use vstore_types::{
    CodingOption, CropFactor, Fidelity, FrameSampling, ImageQuality, OperatorKind, Resolution,
    StorageFormat,
};

fn rows_for(
    profiler: &vstore_core::profiler::Profiler,
    op: OperatorKind,
    fidelities: &[Fidelity],
) -> Vec<Vec<String>> {
    fidelities
        .iter()
        .map(|&fidelity| {
            let consumer = profiler
                .profile_consumer(op, fidelity)
                .expect("the profiling clip degrades to every fidelity");
            // Decode speed when the stored video is the golden/ingestion
            // format (what a conventional store would hold) …
            let golden = StorageFormat::new(Fidelity::INGESTION, CodingOption::SMALLEST);
            let golden_decode = profiler.retrieval_speed(&golden, fidelity.sampling);
            // … and when the stored video has the same fidelity as consumed,
            // with the cheapest-to-decode coding.
            let matched = StorageFormat::new(fidelity, CodingOption::CHEAPEST_DECODE);
            let matched_decode = profiler.retrieval_speed(&matched, fidelity.sampling);
            let raw = StorageFormat::new(fidelity, CodingOption::Raw);
            let raw_retrieval = profiler.retrieval_speed(&raw, fidelity.sampling);
            vec![
                fidelity.label(),
                format!("{:.2}", consumer.accuracy),
                fmt_speed(consumer.consumption_speed.factor()),
                fmt_speed(golden_decode.factor()),
                fmt_speed(matched_decode.factor()),
                fmt_speed(raw_retrieval.factor()),
            ]
        })
        .collect()
}

fn main() {
    let profiler = paper_profiler();
    let headers = [
        "consumed fidelity",
        "accuracy",
        "consumption spd",
        "decode spd (golden SF)",
        "decode spd (same-fidelity SF)",
        "RAW retrieval spd",
    ];

    let license = [
        Fidelity::new(
            ImageQuality::Good,
            CropFactor::C75,
            Resolution::R540,
            FrameSampling::S1_6,
        ),
        Fidelity::new(
            ImageQuality::Bad,
            CropFactor::C100,
            Resolution::R540,
            FrameSampling::S1_6,
        ),
        Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R540,
            FrameSampling::S1_6,
        ),
    ];
    print_table(
        "Figure 6(a): License — decoding the golden format can bottleneck consumption",
        &headers,
        &rows_for(&profiler, OperatorKind::License, &license),
    );

    let motion = [
        Fidelity::new(
            ImageQuality::Best,
            CropFactor::C100,
            Resolution::R180,
            FrameSampling::Full,
        ),
        Fidelity::new(
            ImageQuality::Bad,
            CropFactor::C50,
            Resolution::R180,
            FrameSampling::S1_6,
        ),
    ];
    print_table(
        "Figure 6(b): Motion — even same-fidelity decoding is too slow; RAW is needed",
        &headers,
        &rows_for(&profiler, OperatorKind::Motion, &motion),
    );
}
