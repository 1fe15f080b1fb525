//! Figure 4 — fidelity knobs have high, complex impacts on the costs of all
//! four data-path stages and on operator accuracy.
//!
//! Each sub-plot varies one knob with the others fixed:
//!   (a) crop factor    / Motion      (c) frame sampling / S-NN
//!   (b) image quality  / License     (d) frame sampling / NN
//!
//! For every knob value we report ingestion cost (transcode cores), storage
//! cost (KB per video-second), retrieval cost (1/decode speed), consumption
//! cost (1/consumption speed) and the measured accuracy (F1 against the
//! ingestion-fidelity run).

use vstore_bench::{paper_profiler, print_table};
use vstore_types::{
    CodingOption, CropFactor, Fidelity, FrameSampling, ImageQuality, OperatorKind, Resolution,
    StorageFormat,
};

fn report_row(
    profiler: &vstore_core::profiler::Profiler,
    op: OperatorKind,
    fidelity: Fidelity,
    label: String,
) -> Vec<String> {
    let consumer = profiler
        .profile_consumer(op, fidelity)
        .expect("the profiling clip degrades to every fidelity");
    let storage = profiler.profile_storage(StorageFormat::new(fidelity, CodingOption::SMALLEST));
    vec![
        label,
        format!("{:.3}", consumer.accuracy),
        format!("{:.2}", storage.encode_cores),
        format!("{:.0}", storage.bytes_per_video_second.kib()),
        format!("{:.4}", 1.0 / storage.sequential_retrieval_speed.factor()),
        format!("{:.6}", 1.0 / consumer.consumption_speed.factor()),
    ]
}

fn main() {
    let profiler = paper_profiler();
    let headers = [
        "knob value",
        "accuracy (F1)",
        "ingest (cores)",
        "storage (KB/s)",
        "retrieval (s/s)",
        "consumption (s/s)",
    ];

    // (a) Crop factor, operator: Motion.
    let rows: Vec<Vec<String>> = CropFactor::ALL
        .iter()
        .map(|&crop| {
            let f = Fidelity::new(
                ImageQuality::Best,
                crop,
                Resolution::R540,
                FrameSampling::Full,
            );
            report_row(&profiler, OperatorKind::Motion, f, crop.label().to_owned())
        })
        .collect();
    print_table("Figure 4(a): crop factor (op: Motion)", &headers, &rows);

    // (b) Image quality, operator: License.
    let rows: Vec<Vec<String>> = ImageQuality::ALL
        .iter()
        .map(|&quality| {
            let f = Fidelity::new(
                quality,
                CropFactor::C100,
                Resolution::R540,
                FrameSampling::Full,
            );
            report_row(
                &profiler,
                OperatorKind::License,
                f,
                quality.label().to_owned(),
            )
        })
        .collect();
    print_table("Figure 4(b): image quality (op: License)", &headers, &rows);

    // (c) Frame sampling, operator: S-NN.
    let rows: Vec<Vec<String>> = FrameSampling::ALL
        .iter()
        .map(|&sampling| {
            let f = Fidelity::new(
                ImageQuality::Best,
                CropFactor::C100,
                Resolution::R200,
                sampling,
            );
            report_row(
                &profiler,
                OperatorKind::SpecializedNN,
                f,
                sampling.label().to_owned(),
            )
        })
        .collect();
    print_table(
        "Figure 4(c): frame sampling (op: specialized NN)",
        &headers,
        &rows,
    );

    // (d) Frame sampling, operator: NN.
    let rows: Vec<Vec<String>> = FrameSampling::ALL
        .iter()
        .map(|&sampling| {
            let f = Fidelity::new(
                ImageQuality::Good,
                CropFactor::C100,
                Resolution::R600,
                sampling,
            );
            report_row(
                &profiler,
                OperatorKind::FullNN,
                f,
                sampling.label().to_owned(),
            )
        })
        .collect();
    print_table("Figure 4(d): frame sampling (op: NN)", &headers, &rows);
}
