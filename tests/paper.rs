//! The paper's evaluation (§6) as a scorecard: one test per figure or
//! table. Each test builds the figure's rows from the profiler, the cost
//! model or a running store, prints them, and asserts the figure's
//! qualitative claims. Where this repository records one of the paper's
//! own numbers, it is printed beside ours.
//!
//! ```sh
//! cargo test -q --release --test paper -- --nocapture   # every figure's rows
//! cargo test -q --test paper fig13 -- --nocapture       # one figure
//! ```
//!
//! Every store here runs on the in-memory backend, so the suite leaves
//! nothing on disk. The profilers that several figures read are built
//! once per run, behind `OnceLock`s.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use vstore::{BackendOptions, IngestRequest, QueryRequest, QuerySpec, VStore, VStoreOptions};
use vstore_codec::Transcoder;
use vstore_core::profiler::{Profiler, ProfilerConfig};
use vstore_core::{adapt_to_ingest_budget, Alternative, CfSearch, CoalesceStrategy, Coalescer};
use vstore_core::{ConfigurationEngine, DerivedCf, EngineOptions};
use vstore_datasets::{Dataset, VideoSource};
use vstore_ingest::IngestionPipeline;
use vstore_ops::OperatorLibrary;
use vstore_query::QueryEngine;
use vstore_sim::CodingCostModel;
use vstore_storage::{SegmentReader, SegmentStore};
use vstore_types::{
    ByteSize, CodingOption, CodingSpace, Configuration, Consumer, Fidelity, FidelitySpace,
    FormatId, FrameSampling, KeyframeInterval, OperatorKind, SpeedStep, StorageFormat,
    Subscription, DEFAULT_ACCURACY_LEVELS,
};

use OperatorKind::{FullNN, License, Motion, Ocr, SpecializedNN};

// ---------------------------------------------------------------------------
// Shared fixtures: every profiler that more than one figure reads is
// built once.
// ---------------------------------------------------------------------------

fn profiler(config: ProfilerConfig) -> Arc<Profiler> {
    let coding = CodingCostModel::paper_testbed();
    let library = OperatorLibrary::paper_testbed();
    Arc::new(Profiler::new(library, coding, config))
}

/// The §6.1 profiler (10-second clips), shared by Figs. 4–6, §6.4 and
/// Tables 3–4. Its memo makes every profile after the first free.
fn paper_profiler() -> &'static Arc<Profiler> {
    static PROFILER: OnceLock<Arc<Profiler>> = OnceLock::new();
    PROFILER.get_or_init(|| profiler(ProfilerConfig::paper_evaluation()))
}

/// The 3-second-clip profiler, shared by the sweeps that derive many
/// configurations (Figs. 11–13 and §6.4).
fn fast_profiler() -> &'static Arc<Profiler> {
    static PROFILER: OnceLock<Arc<Profiler>> = OnceLock::new();
    PROFILER.get_or_init(|| profiler(ProfilerConfig::fast_test()))
}

/// Engine options over the reduced (360-option) fidelity space.
fn reduced() -> EngineOptions {
    EngineOptions {
        fidelity_space: FidelitySpace::reduced(),
        ..EngineOptions::default()
    }
}

fn fast_engine(options: EngineOptions) -> ConfigurationEngine {
    ConfigurationEngine::new(Arc::clone(fast_profiler()), options)
}

/// Every operator in `ops` at each of the paper's accuracy levels.
fn consumers_of(ops: &[OperatorKind]) -> Vec<Consumer> {
    let levels = DEFAULT_ACCURACY_LEVELS.map(|a| a.value());
    let at_each = |&op| levels.map(|a| Consumer::new(op, a));
    ops.iter().flat_map(at_each).collect()
}

/// The fidelities whose paper-style label (`quality-resolution-sampling-
/// crop`) matches `pattern`, where one `*` stands for one knob's value;
/// each with that value, in ascending richness.
fn fidelities(pattern: &str) -> Vec<(String, Fidelity)> {
    let (prefix, suffix) = pattern.split_once('*').unwrap_or((pattern, ""));
    let value = |f: Fidelity| {
        let label = f.label();
        let value = label.strip_prefix(prefix)?.strip_suffix(suffix)?;
        (!value.contains('-')).then(|| (value.to_owned(), f))
    };
    FidelitySpace::full().iter().filter_map(value).collect()
}

/// The fidelity with the paper-style label `label`.
fn fidelity(label: &str) -> Fidelity {
    fidelities(label)[0].1
}

// ---------------------------------------------------------------------------
// The printed record
// ---------------------------------------------------------------------------

/// One figure's printed record: its tables, then each claim and whether it
/// holds, then our numbers beside the paper's where this repository
/// records them. `finish` prints the record and then fails naming every
/// claim that does not hold, so a failing run still shows its rows.
#[derive(Default)]
struct Card {
    out: String,
    failed: Vec<String>,
}

impl Card {
    /// A table with aligned columns; the headers and each row are
    /// `|`-separated cells.
    fn table(&mut self, title: &str, headers: &str, rows: &[String]) {
        let lines = std::iter::once(headers).chain(rows.iter().map(String::as_str));
        let split = |line: &str| line.split('|').map(str::to_owned).collect();
        let lines: Vec<Vec<String>> = lines.map(split).collect();
        let mut widths = vec![0; lines[0].len()];
        for line in &lines {
            for (width, cell) in widths.iter_mut().zip(line) {
                *width = (*width).max(cell.chars().count());
            }
        }
        self.out += &format!("\n== {title} ==\n");
        for (i, line) in lines.iter().enumerate() {
            let cells = line.iter().zip(&widths);
            let padded = join(cells, |(cell, w)| format!("{cell:<w$}"));
            self.out += &format!("{}\n", padded.replace('|', "  ").trim_end());
            if i == 0 {
                let rule = join(&widths, |w| "-".repeat(*w));
                self.out += &format!("{}\n", rule.replace('|', "  "));
            }
        }
    }

    /// One of the figure's claims.
    fn check(&mut self, claim: &str, holds: bool) {
        let verdict = if holds { "holds" } else { "FAILS" };
        self.out += &format!("{verdict}: {claim}\n");
        if !holds {
            self.failed.push(claim.to_owned());
        }
    }

    /// One of our numbers beside the paper's.
    fn versus(&mut self, what: &str, ours: String, paper: &str) {
        self.out += &format!("ours vs paper, {what}: {ours} vs {paper}\n");
    }

    fn finish(self) {
        println!("{}", self.out);
        let failed = self.failed;
        assert!(failed.is_empty(), "claims that do not hold: {failed:?}");
    }
}

/// Table cells: one per item, `|`-separated.
fn join<T>(items: impl IntoIterator<Item = T>, cell: impl FnMut(T) -> String) -> String {
    items.into_iter().map(cell).collect::<Vec<_>>().join("|")
}

/// A speed factor the way the paper prints it (`362x`, `23.4x`, `4.04x`).
fn x(factor: f64) -> String {
    match factor {
        f if f >= 100.0 => format!("{f:.0}x"),
        f if f >= 10.0 => format!("{f:.1}x"),
        f => format!("{f:.2}x"),
    }
}

/// Each value strictly above the one before it.
fn rising(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[1] > w[0])
}

/// Each value at least the one before it.
fn never_falls(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[1] >= w[0] * (1.0 - 1e-9))
}

/// Each value at most the one before it.
fn never_rises(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[1] <= w[0] * (1.0 + 1e-9))
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MAX, f64::min)
}

/// Largest over smallest.
fn spread(values: &[f64]) -> f64 {
    max(values) / min(values)
}

/// An encoded coding option.
fn encoded(keyframe_interval: KeyframeInterval, speed: SpeedStep) -> CodingOption {
    CodingOption::Encoded {
        keyframe_interval,
        speed,
    }
}

// ---------------------------------------------------------------------------
// §2: Figures 3–6
// ---------------------------------------------------------------------------

/// Figure 3: the coding knobs on 100 seconds of `tucson`. (a) The speed
/// step trades encode speed for size; (b) the keyframe interval trades size
/// for the decode speed of a consumer sampling 1 frame in 30.
#[test]
fn fig03_coding_knobs() {
    let model = CodingCostModel::paper_testbed();
    let motion = VideoSource::new(Dataset::Tucson).motion_intensity();
    let at = |interval, speed| StorageFormat::new(Fidelity::INGESTION, encoded(interval, speed));
    // MB in 100 seconds of video.
    let mb = |f: &StorageFormat| model.bytes_per_video_second(f, motion).bytes() as f64 / 1e4;
    let mut card = Card::default();

    let (mut encode, mut decode, mut size, mut rows) = (vec![], vec![], vec![], vec![]);
    for speed in SpeedStep::ALL {
        let f = at(KeyframeInterval::K250, speed);
        let e = model.encode_speed(&f, motion).factor();
        let d = model.sequential_decode_speed(&f, motion).factor();
        rows.push(format!("{speed:?}|{}|{}|{:.1}", x(e), x(d), mb(&f)));
        encode.push(e);
        decode.push(d);
        size.push(mb(&f));
    }
    let headers = "speed step|encode|decode|MB";
    card.table("Figure 3(a): speed step at interval 250", headers, &rows);
    card.check("(a) encode speed rises", rising(&encode));
    card.check("(a) size rises", rising(&size));
    card.check("(a) decode stays flat (5%)", spread(&decode) <= 1.05);
    card.versus("(a) encode speed range", x(spread(&encode)), "~40x");
    card.versus("(a) size range", x(spread(&size)), "up to ~2.5x");

    let (mut sparse, mut size, mut rows) = (vec![], vec![], vec![]);
    for interval in KeyframeInterval::ALL.into_iter().rev() {
        let f = at(interval, SpeedStep::Medium);
        let sampling = Some(FrameSampling::S1_30);
        let s = model.decode_speed(&f, motion, sampling).factor();
        let all = model.sequential_decode_speed(&f, motion).factor();
        rows.push(format!("{interval:?}|{}|{}|{:.1}", x(s), x(all), mb(&f)));
        sparse.push(s);
        size.push(mb(&f));
    }
    let headers = "keyframe interval|decode 1/30|decode all|MB";
    card.table("Figure 3(b): keyframe interval", headers, &rows);
    let gain = sparse[sparse.len() - 1] / sparse[0];
    card.check("(b) size grows as the interval shrinks", rising(&size));
    card.check("(b) sparse decode at 5 is 3x+ 250's", gain >= 3.0);
    card.versus("(b) size, 5 over 250", x(spread(&size)), "~4x");
    card.versus("(b) sparse decode, 5 over 250", x(gain), "up to ~6x");
    card.finish();
}

/// The costs of storing `fidelity` with `coding` and consuming it with
/// `op` (ingest cores, storage KB/s, retrieval and consumption seconds per
/// video-second), and the operator's accuracy there.
fn costs(op: OperatorKind, fidelity: Fidelity, coding: CodingOption) -> ([f64; 4], f64) {
    let profiler = paper_profiler();
    let consumer = profiler.profile_consumer(op, fidelity).unwrap();
    let storage = profiler.profile_storage(StorageFormat::new(fidelity, coding));
    let retrieval = 1.0 / storage.sequential_retrieval_speed.factor();
    let consumption = 1.0 / consumer.consumption_speed.factor();
    let size = storage.bytes_per_video_second.kib();
    let cost = [storage.encode_cores, size, retrieval, consumption];
    (cost, consumer.accuracy)
}

/// Figure 4: each fidelity knob moves the cost of every data-path stage,
/// one knob swept at a time with the others fixed.
#[test]
fn fig04_fidelity_knobs() {
    let mut card = Card::default();
    let sweeps = [
        ("(a)", Motion, "best-540p-1-*"),
        ("(b)", License, "*-540p-1-100%"),
        ("(c)", SpecializedNN, "best-200p-*-100%"),
        ("(d)", FullNN, "good-600p-*-100%"),
    ];
    let headers = "value|accuracy|ingest cores|KB/s|retrieval s/s|consumption s/s";
    for (panel, op, pattern) in sweeps {
        let mut columns: [Vec<f64>; 4] = Default::default();
        let mut rows = Vec::new();
        for (value, f) in fidelities(pattern) {
            let (cost, accuracy) = costs(op, f, CodingOption::SMALLEST);
            for (column, c) in columns.iter_mut().zip(cost) {
                column.push(c);
            }
            let [i, s, r, c] = cost;
            rows.push(format!("{value}|{accuracy:.3}|{i:.2}|{s:.0}|{r:.4}|{c:.6}"));
        }
        card.table(&format!("Figure 4{panel}: {op}, {pattern}"), headers, &rows);
        let costlier = columns[..3].iter().all(|c| never_falls(c));
        let claim = format!("{panel} richer costs more to ingest, store, read");
        card.check(&claim, costlier);
        if op == License {
            let flat = spread(&columns[3]) == 1.0;
            card.check("(b) consumption ignores quality (O2)", flat);
        }
    }
    card.finish();
}

/// Figure 5: fidelity options of nearly the same License accuracy differ
/// widely in cost (coding 250-med).
#[test]
fn fig05_disparate_costs() {
    const TARGET: f64 = 0.80;
    const BAND: f64 = 0.03;
    const FACTOR: f64 = 10.0;
    let coding = encoded(KeyframeInterval::K250, SpeedStep::Medium);
    // Three points of the profiled space inside the band, each reaching it
    // a different way.
    let options = [
        "best-360p-1/30-50%", // 1 frame in 30 at the best quality
        "good-600p-1/2-100%", // every other frame at 600p
        "good-400p-1-100%",   // every frame at 400p
    ];
    let mut columns: [Vec<f64>; 4] = Default::default();
    let (mut rows, mut in_band) = (Vec::new(), true);
    for label in options {
        let (cost, accuracy) = costs(License, fidelity(label), coding);
        for (column, c) in columns.iter_mut().zip(cost) {
            column.push(c);
        }
        in_band &= (accuracy - TARGET).abs() <= BAND;
        let [i, s, r, c] = cost;
        rows.push(format!("{label}|{accuracy:.3}|{i:.3}|{s:.0}|{r:.4}|{c:.5}"));
    }
    let mut card = Card::default();
    let headers = "fidelity|accuracy|ingest cores|KB/s|retrieval s/s|consumption s/s";
    card.table("Figure 5: License, coding 250-med", headers, &rows);
    let widest = max(&columns.map(|c| spread(&c)));
    card.check(&format!("all within ±{BAND} of F1 {TARGET}"), in_band);
    let claim = format!("a cost differs {FACTOR}x+ (widest {})", x(widest));
    card.check(&claim, widest >= FACTOR);
    card.finish();
}

/// Figure 6: retrieval can bottleneck consumption. Each consumer's own
/// speed beside the decode speed of the golden format, of an encoded
/// format at the consumed fidelity and of RAW at it.
#[test]
fn fig06_retrieval_bottleneck() {
    let profiler = paper_profiler();
    let mut card = Card::default();
    let mut sweep = |op: OperatorKind, labels: &[&str]| {
        let (mut speeds, mut rows) = (Vec::new(), Vec::new());
        for &label in labels {
            let f = fidelity(label);
            let consumer = profiler.profile_consumer(op, f).unwrap();
            let read = |f, coding| {
                let format = StorageFormat::new(f, coding);
                profiler.retrieval_speed(&format, f.sampling)
            };
            let speed = [
                consumer.consumption_speed,
                read(Fidelity::INGESTION, CodingOption::SMALLEST),
                read(f, CodingOption::CHEAPEST_DECODE),
                read(f, CodingOption::Raw),
            ]
            .map(|s| s.factor());
            let accuracy = consumer.accuracy;
            rows.push(format!("{label}|{accuracy:.2}|{}", join(speed, x)));
            speeds.push(speed);
        }
        let headers = "fidelity|accuracy|consumption|golden|same fidelity|RAW";
        card.table(&format!("Figure 6: {op}"), headers, &rows);
        speeds
    };
    let license = [
        "good-540p-1/6-75%",
        "bad-540p-1/6-100%",
        "good-540p-1/6-100%",
    ];
    let license = sweep(License, &license);
    let motion = sweep(Motion, &["best-180p-1-100%", "bad-180p-1/6-50%"]);
    // Column `a` faster than column `b` in every row, or at least as fast.
    let faster = |speeds: &[[f64; 4]], a, b| speeds.iter().all(|s| s[a] > s[b]);
    let keeps_up = |speeds: &[[f64; 4]], a, b| speeds.iter().all(|s| s[a] >= s[b]);
    card.check("(a) License outpaces golden decode", faster(&license, 0, 1));
    card.check("(a) same fidelity keeps up", keeps_up(&license, 2, 0));
    card.check("(b) Motion outpaces same-fidelity", faster(&motion, 0, 2));
    card.check("(b) RAW retrieval keeps up", keeps_up(&motion, 3, 0));
    card.finish();
}

// ---------------------------------------------------------------------------
// §6.2: Figures 11–12, Tables 3–4
// ---------------------------------------------------------------------------

/// VStore's configuration for `consumers`, then 1→1, 1→N and N→N.
fn alternatives(engine: &ConfigurationEngine, consumers: &[Consumer]) -> [Configuration; 4] {
    let alternative = |a| engine.derive_alternative(consumers, a).unwrap();
    let one = alternative(Alternative::OneToOne);
    let one_n = alternative(Alternative::OneToN);
    let n_n = alternative(Alternative::NToN);
    [engine.derive(consumers).unwrap(), one, one_n, n_n]
}

/// Figure 11: VStore against the 1→1, 1→N and N→N configurations on the six
/// datasets: (a) query speed by target accuracy, ingesting and querying two
/// segments of each stream; (b) storage and (c) ingest cost per stream,
/// from the cost model over each configuration's formats.
#[test]
fn fig11_end_to_end() {
    const SEGMENTS: u64 = 2;
    let accuracies = [1.0, 0.95, 0.9, 0.8];
    let engine = fast_engine(reduced());
    let model = fast_profiler().coding_model();
    // A query's operators at every accuracy, derived once per query and
    // shared by its three datasets.
    let derive = |spec: fn(f64) -> QuerySpec| {
        let consumers = accuracies.iter().flat_map(|&a| spec(a).consumers());
        let consumers: Vec<Consumer> = consumers.collect();
        let configs = alternatives(&engine, &consumers);
        assert_eq!(configs[0].subscriptions.len(), consumers.len());
        (spec, configs)
    };
    let queries = [derive(QuerySpec::query_a), derive(QuerySpec::query_b)];

    let (mut speed_rows, mut cost_rows) = (Vec::new(), Vec::new());
    let mut speeds = Vec::new(); // [1→1, 1→N, VStore] per dataset and accuracy
    let mut costs = Vec::new(); // [(GB/day, cores)] of [VStore, 1→1, 1→N, N→N]
    let mut relaxing_never_slows = true;
    for dataset in Dataset::ALL {
        let query_b = !Dataset::QUERY_A.contains(&dataset);
        let (spec, configs) = &queries[usize::from(query_b)];
        let [vstore, one_to_one, one_to_n, _] = configs;
        let motion = dataset.profile().motion_intensity;
        let cost = configs.each_ref().map(|config| {
            let formats = config.storage_formats.values();
            let gb = formats.clone().map(|sf| model.gb_per_day(sf, motion));
            let cores = formats.map(|sf| model.encode_cores_for_realtime(sf, motion));
            (gb.sum::<f64>(), cores.sum::<f64>())
        });
        let gb = join(cost, |c| format!("{:.0}", c.0));
        let cpu = join(cost, |c| format!("{:.0}%", c.1 * 100.0));
        cost_rows.push(format!("{dataset}|{gb}|{cpu}"));
        costs.push(cost);

        // Ingest under VStore and under 1→N, whose golden format 1→1 reads
        // too; then query each accuracy under each configuration.
        let options = VStoreOptions::fast().with_backend(BackendOptions::Mem);
        let store = VStore::open("unused: in memory", options).unwrap();
        let source = VideoSource::new(dataset);
        for config in [vstore, one_to_n] {
            store.install_configuration(config.clone());
            let request = IngestRequest::new(&source).segments(SEGMENTS);
            let report = store.ingest(request).unwrap();
            let written = SEGMENTS as usize * config.storage_formats.len();
            assert_eq!(report.segments_written, written);
            assert!(report.transcode_cores() > 0.0);
        }
        assert!(store.store_stats().live_segments > 0);
        let mut stricter = 0.0;
        for accuracy in accuracies {
            let run = |config: &Configuration| {
                store.install_configuration(config.clone());
                let request = QueryRequest::new(source.name(), &spec(accuracy));
                let result = store.query(request.segments(SEGMENTS)).unwrap();
                // A cascade of three stages, each fed only what the one
                // before it passed.
                assert_eq!(result.stages.len(), 3);
                for w in result.stages.windows(2) {
                    assert!(w[1].segments_processed <= w[0].segments_passed);
                }
                result.speed.factor()
            };
            let speed = [run(one_to_one), run(one_to_n), run(vstore)];
            relaxing_never_slows &= speed[2] >= stricter * 0.9;
            stricter = speed[2];
            let speed_cells = join(speed, x);
            speed_rows.push(format!("{dataset}|{accuracy:.2}|{speed_cells}"));
            speeds.push(speed);
        }
    }
    let mut card = Card::default();
    let headers = "dataset|accuracy|1->1|1->N|VStore";
    card.table("Figure 11(a): query speed", headers, &speed_rows);
    let headers = "dataset|GB/day VStore|1->1|1->N|N->N|CPU VStore|1->1|1->N|N->N";
    card.table("Figure 11(b, c): storage and ingest", headers, &cost_rows);
    let ordered = speeds.iter().all(|s| s[2] > s[1] && s[1] >= s[0]);
    let realtime = speeds.iter().all(|s| s[2] > 1.0);
    let stores_less = costs.iter().all(|c| c[0].0 <= c[3].0);
    let same_storage = costs.iter().all(|c| c[1].0 == c[2].0);
    let ingests_less = costs.iter().all(|c| c[0].1 <= c[3].1);
    card.check("(a) VStore > 1->N >= 1->1 everywhere", ordered);
    card.check("(a) every VStore query beats realtime", realtime);
    card.check("(a) relaxing never slows VStore 10%+", relaxing_never_slows);
    card.check("(b) VStore stores <= N->N", stores_less);
    card.check("(b) 1->1 stores = 1->N", same_storage);
    card.check("(c) VStore ingests <= N->N", ingests_less);
    let peak = max(&speeds.iter().map(|s| s[2]).collect::<Vec<_>>());
    card.versus("peak query speed", x(peak), "362x (the abstract)");

    card.finish();
}

/// Figure 12: adding operators (each at four accuracies, in Table 2's
/// order) stops raising the transcoding cost once S-NN is in: new
/// consumers share the storage formats already there.
#[test]
fn fig12_operator_scaling() {
    let engine = fast_engine(reduced());
    let (mut cores, mut rows) = (Vec::new(), Vec::new());
    for (count, op) in OperatorKind::ALL.iter().enumerate() {
        let consumers = consumers_of(&OperatorKind::ALL[..=count]);
        let cfs = engine.derive_consumption_formats(&consumers).unwrap();
        let coalesced = engine.derive_storage_formats(&cfs).unwrap();
        let (formats, total) = (coalesced.formats.len(), coalesced.total_ingest_cores);
        let (ops, cpu) = (count + 1, total * 100.0);
        rows.push(format!("{ops}|{op}|{formats}|{cpu:.0}%"));
        cores.push(total);
    }
    let mut card = Card::default();
    let headers = "operators|last added|SFs|ingest CPU";
    card.table("Figure 12: transcoding by operator count", headers, &rows);
    let snn = OperatorKind::ALL.iter().position(|&op| op == SpecializedNN);
    let (plateau, after) = (cores[snn.unwrap()], &cores[snn.unwrap()..]);
    let flat = after.iter().all(|c| (c - plateau).abs() <= 0.01 * plateau);
    card.check("ingest cost plateaus (1%) once S-NN is in", flat);
    card.finish();
}

/// Table 3: the configuration VStore derives for the 24 consumers over the
/// full Table-1 space, where R1–R3 hold.
#[test]
fn table3_configuration() {
    let profiler = paper_profiler();
    let consumers = Consumer::evaluation_set();
    let engine = ConfigurationEngine::new(Arc::clone(profiler), EngineOptions::default());
    let config = engine.derive(&consumers).unwrap();

    let mut card = Card::default();
    let cell = |c: &Consumer| {
        let sub = config.subscription(c).unwrap();
        let speed = x(sub.consumption_speed.factor());
        format!("{} {} {speed}", sub.consumption.fidelity, sub.storage)
    };
    let rows: Vec<String> = DEFAULT_ACCURACY_LEVELS
        .iter()
        .map(|a| {
            let at = OperatorKind::QUERY_OPS.map(|op| Consumer::new(op, a.value()));
            format!("F1={:.2}|{}", a.value(), join(&at, cell))
        })
        .collect();
    let headers = join(OperatorKind::QUERY_OPS, |op| op.to_string());
    let title = "Table 3(a): consumption formats (fidelity, SF, speed)";
    card.table(title, &format!("target|{headers}"), &rows);
    let (model, motion) = (profiler.coding_model(), profiler.coding_motion());
    let retrieval = |id: &FormatId| config.retrieval_speeds[id].factor();
    let row = |(id, sf): (&FormatId, &StorageFormat)| {
        let kb = model.bytes_per_video_second(sf, motion).kib();
        let (coding, read) = (sf.coding.label(), x(retrieval(id)));
        format!("{id}|{}|{coding}|{kb:.0} KB|{read}", sf.fidelity)
    };
    let rows: Vec<String> = config.storage_formats.iter().map(row).collect();
    let headers = "SF|fidelity|coding|size/s|retrieval";
    card.table("Table 3(b): storage formats", headers, &rows);

    let knobs = config.knob_count();
    let sfs = config.storage_formats.len();
    let cfs = config.unique_consumption_formats();
    let subscriptions = config.subscriptions.len();
    card.check("one subscription per consumer", subscriptions == 24);
    card.check(&format!("{knobs} knobs, over 100"), knobs > 100);
    let ordered = sfs < cfs && cfs < 24;
    card.check(&format!("{sfs} SFs < {cfs} unique CFs < 24"), ordered);
    let golden = config.golden().unwrap().fidelity;
    let mut formats = config.storage_formats.values();
    let richest = formats.all(|sf| golden.richer_or_equal(&sf.fidelity));
    let subs = &config.subscriptions;
    let met = |s: &Subscription| s.expected_accuracy + 1e-9 >= s.consumer.accuracy.value();
    let kept_up =
        |s: &Subscription| s.retrieval_speed.factor() >= s.consumption_speed.factor() * 0.999;
    let (r1, r2) = (subs.iter().all(met), subs.iter().all(kept_up));
    card.check("validates", config.validate().is_ok());
    card.check("golden is the richest SF", richest);
    card.check("R1, targets met", r1);
    card.check("R2, retrieval keeps up", r2);
    let speed = |c: &Consumer| config.subscription(c).unwrap().consumption_speed.factor();
    let relaxed = OperatorKind::QUERY_OPS.iter().all(|&op| {
        let speeds: Vec<f64> = consumers_of(&[op]).iter().map(speed).collect();
        speeds.windows(2).all(|w| w[1] >= w[0] * 0.999)
    });
    card.check("relaxing never slows a CF", relaxed);
    let golden = retrieval(&FormatId::GOLDEN);
    let formats = config.storage_formats.iter();
    let raw = formats.filter(|(_, sf)| sf.coding.is_raw());
    let raw: Vec<f64> = raw.map(|(id, _)| retrieval(id)).collect();
    let near_paper = (golden / 23.0 - 1.0).abs() <= 0.25;
    let raw_faster = min(&raw) > golden * 10.0;
    card.check("RAW SFs read 10x+ faster than golden", raw_faster);
    card.check("golden reads within 25% of ~23x", near_paper);
    let golden_format = config.golden().unwrap();
    let mb = model.bytes_per_video_second(golden_format, motion).bytes() as f64 / 1e6;
    let ours = format!("{} at {mb:.2} MB/s", x(golden));
    card.versus("golden SF", ours, "~23x at ~1.4 MB/s");
    let ours = format!("{}–{}", x(min(&raw)), x(max(&raw)));
    card.versus("RAW SF retrieval", ours, "1137x–34132x");
    card.versus("knobs", knobs.to_string(), "over 100 (the abstract)");
    card.finish();
}

/// Table 4: as the ingest budget shrinks, VStore picks faster coding speed
/// steps and stays within the budget at a modest storage cost.
#[test]
fn table4_ingest_budget() {
    let profiler = paper_profiler();
    let engine = ConfigurationEngine::new(Arc::clone(profiler), reduced());
    let consumers = Consumer::evaluation_set();
    let cfs = engine.derive_consumption_formats(&consumers).unwrap();
    let formats = engine.derive_storage_formats(&cfs).unwrap().formats;
    let unconstrained: f64 = formats.iter().map(|sf| sf.encode_cores).sum();

    let (mut storage, mut within, mut rows) = (Vec::new(), true, Vec::new());
    for budget in [unconstrained.ceil(), 6.0, 3.0, 2.0, 1.0] {
        let adapted = adapt_to_ingest_budget(profiler, &formats, budget).unwrap();
        let used = adapted.total_ingest_cores;
        within &= adapted.within_budget && used <= budget;
        let mb = adapted.total_bytes_per_video_second as f64 / 1e6;
        storage.push(mb);
        let codings = join(&adapted.formats, |sf| sf.format.coding.label());
        let gb = mb * 86.4;
        rows.push(format!("{budget:.0}|{mb:.3}|{gb:.1}|{used:.2}|{codings}"));
    }
    let ids = join(0..formats.len(), |i| FormatId(i as u32).to_string());
    let headers = format!("budget cores|MB/s|GB/day|used cores|{ids}");
    let mut card = Card::default();
    card.table("Table 4: coding under an ingest budget", &headers, &rows);
    card.check("stays within every budget", within);
    let grows = never_falls(&storage);
    card.check("storage never falls as budgets shrink", grows);
    let ours = format!("{unconstrained:.2} cores");
    card.versus("unconstrained ingest", ours, "~9 cores (§6.2)");
    card.finish();
}

// ---------------------------------------------------------------------------
// §6.3: Figure 13
// ---------------------------------------------------------------------------

/// Figure 13: age-based erosion, with budgets from above to below the
/// unconstrained 10-day footprint. (a) The plan's overall relative speed by
/// video age; (b) what each format keeps by age under the tightest budget,
/// in the plan's GB per day and in the segments a store actually holds.
#[test]
fn fig13_erosion() {
    const LIFESPAN: u32 = 10;
    const SEGMENTS: usize = 20;
    let consumers = Consumer::evaluation_set();
    let engine = fast_engine(reduced());
    let per_second = engine.storage_bytes_per_second(&engine.derive(&consumers).unwrap());
    let footprint = per_second.bytes() as f64 * 86_400.0 * f64::from(LIFESPAN);
    let budgets = [1.05, 0.95, 0.9, 0.85];
    let plans = budgets.map(|fraction| {
        let options = EngineOptions {
            storage_budget: Some(ByteSize((footprint * fraction) as u64)),
            lifespan_days: LIFESPAN,
            ..reduced()
        };
        fast_engine(options).derive(&consumers).unwrap()
    });
    let ages: Vec<u32> = (1..=LIFESPAN).collect();
    let days = join(&ages, |d| format!("day {d}"));
    let mut card = Card::default();

    let speed = |c: &Configuration, age| {
        let step = c.erosion.step(age);
        step.map_or(1.0, |s| s.overall_relative_speed)
    };
    let by_age = |c: &Configuration| -> Vec<f64> { ages.iter().map(|&a| speed(c, a)).collect() };
    let mut rows = Vec::new();
    for (fraction, c) in budgets.iter().zip(&plans) {
        let (budget, k) = (fraction * 100.0, c.erosion.decay_factor);
        let by_age = join(by_age(c), |s| format!("{s:.2}"));
        rows.push(format!("{budget:.0}%|k={k:.2}|{by_age}"));
    }
    let title = "Figure 13(a): overall relative speed by age";
    card.table(title, &format!("budget|decay|{days}"), &rows);
    let steps = || plans.iter().flat_map(|c| c.erosion.steps.iter());
    let by_step = |c: &Configuration| -> Vec<f64> {
        let steps = c.erosion.steps.iter();
        steps.map(|s| s.overall_relative_speed).collect()
    };
    let aging = plans.iter().all(|c| never_rises(&by_age(c)));
    let stepping = plans.iter().all(|c| never_rises(&by_step(c)));
    let on_day = |a| plans.each_ref().map(|c| speed(c, a));
    let tighter = ages.iter().all(|&a| never_rises(&on_day(a)));
    let decays = plans.iter().all(|c| c.erosion.decay_factor >= 0.0);
    let golden_kept = steps().all(|s| s.deleted.keys().all(|id| !id.is_golden()));
    card.check("(a) speed never rises with age", aging);
    card.check("(a) no plan step speeds up", stepping);
    card.check("(a) a tighter budget never speeds a day up", tighter);
    card.check("(a) every decay factor is non-negative", decays);
    card.check("(b) golden is never eroded", golden_kept);
    let ours = format!("{:.2} TB", footprint / 1e12);
    card.versus("unconstrained footprint", ours, "—");

    let tightest = &plans[plans.len() - 1];
    let fraction = |id: FormatId, age| {
        let step = tightest.erosion.step(age);
        step.map_or(0.0, |s| s.deleted_fraction(id).value())
    };
    let model = fast_profiler().coding_model();
    let motion = fast_profiler().coding_motion();
    let (mut residual_never_rises, mut rows) = (true, Vec::new());
    for (id, sf) in &tightest.storage_formats {
        let per_day = model.gb_per_day(sf, motion);
        let residual = ages.iter().map(|&a| per_day * (1.0 - fraction(*id, a)));
        let residual: Vec<f64> = residual.collect();
        residual_never_rises &= never_rises(&residual);
        let cells = join(&residual, |r| format!("{r:.0}"));
        rows.push(format!("{id}|{}|{cells}", sf.fidelity));
    }
    let title = "Figure 13(b): residual GB/day by age, tightest";
    card.table(title, &format!("SF|fidelity|{days}"), &rows);
    card.check("(b) no residual rises with age", residual_never_rises);

    // What a store keeps: ingest SEGMENTS segments of tucson under the
    // tightest plan, erode age by age, and count each format's segments
    // while query A at 0.8 runs over them.
    let store = Arc::new(SegmentStore::open_mem_with_shards(4).unwrap());
    let reader = Arc::new(SegmentReader::disabled(Arc::clone(&store)));
    let coding = CodingCostModel::paper_testbed();
    let library = OperatorLibrary::paper_testbed();
    let pipeline = IngestionPipeline::new(Arc::clone(&reader), Transcoder::new(coding));
    let queries = QueryEngine::new(reader, library, Transcoder::new(coding));
    let (tucson, n) = (VideoSource::new(Dataset::Tucson), SEGMENTS as u64);
    let stream = tucson.name();
    let query_a = QuerySpec::query_a(0.8);
    let query = |c| queries.execute(stream, &query_a, c, 0, n).unwrap();
    let held = |id: &FormatId| store.segments_of(stream, *id).len();
    pipeline.ingest_segments(&tucson, 0, n, tightest).unwrap();
    let mut counts = BTreeMap::<FormatId, Vec<usize>>::new();
    let (mut speeds, mut exact) = (vec![query(tightest).speed.factor()], true);
    for &age in &ages {
        pipeline.apply_erosion(stream, tightest, age).unwrap();
        for id in tightest.storage_formats.keys() {
            let deleted = (SEGMENTS as f64 * fraction(*id, age)).floor() as usize;
            exact &= held(id) == SEGMENTS - deleted;
            counts.entry(*id).or_default().push(held(id));
        }
        let result = query(tightest);
        assert_eq!(result.stages[0].segments_processed, SEGMENTS);
        speeds.push(result.speed.factor());
    }
    let row = |(id, held): (_, &Vec<usize>)| format!("{id}|{}", join(held, usize::to_string));
    let mut rows: Vec<String> = counts.iter().map(row).collect();
    let (fresh, by_age) = (x(speeds[0]), join(&speeds[1..], |s| x(*s)));
    rows.push(format!("query A@0.8 (fresh {fresh})|{by_age}"));
    let title = format!("Figure 13(b): segments held of {SEGMENTS}, tightest");
    card.table(&title, &format!("SF|{days}"), &rows);
    card.check("(b) store holds N - floor(N x fraction)", exact);
    let slowing = never_rises(&speeds);
    card.check("(b) queries never speed up as SFs erode", slowing);

    card.finish();
}

// ---------------------------------------------------------------------------
// §6.4: Figure 14 and the storage-format search
// ---------------------------------------------------------------------------

/// Figure 14: profiling runs and modelled profiling time of VStore's guided
/// consumption-format search against exhaustive profiling, per operator at
/// all four accuracies, each on a fresh 3-second-clip profiler.
#[test]
fn fig14_config_overhead() {
    let (mut rows, mut fewer, mut totals) = (Vec::new(), true, [0; 2]);
    for op in OperatorKind::QUERY_OPS {
        let guided = profiler(ProfilerConfig::fast_test());
        let search = CfSearch::new(&guided);
        for consumer in consumers_of(&[op]) {
            search.derive(consumer).unwrap();
        }
        let exhaustive = profiler(ProfilerConfig::fast_test());
        let search = CfSearch::new(&exhaustive);
        search.derive_exhaustive(Consumer::new(op, 0.95)).unwrap();
        let (g, e) = (guided.stats(), exhaustive.stats());
        let (g_runs, e_runs) = (g.operator_runs, e.operator_runs);
        fewer &= g_runs < e_runs;
        totals[0] += g_runs;
        totals[1] += e_runs;
        let ratio = x(e_runs as f64 / g_runs as f64);
        let (e_s, g_s) = (e.modeled_seconds, g.modeled_seconds);
        rows.push(format!("{op}|{e_runs}|{e_s:.0}|{g_runs}|{g_s:.0}|{ratio}"));
    }
    let mut card = Card::default();
    let headers = "operator|exhaustive runs|modelled s|VStore runs|modelled s|fewer";
    card.table("Figure 14: deriving consumption formats", headers, &rows);
    let [guided, exhaustive] = totals;
    let claim = format!("guided makes fewer runs ({guided} vs {exhaustive})");
    card.check(&claim, fewer);
    card.finish();
}

/// §6.4: the storage-format search. Heuristic coalescing against
/// distance-based selection, each strategy on a fresh profiler so that its
/// storage-format profiles are its own; the consumption formats, the same
/// input to both, come from the shared profilers.
#[test]
fn sec64_sf_overhead() {
    const SHARE_BOUND: f64 = 0.10;
    let sf_space = FidelitySpace::full().len() * CodingSpace::full().len();
    let paper_cfs = |ops: &[OperatorKind]| -> Vec<DerivedCf> {
        let search = CfSearch::new(paper_profiler());
        let derive = |c| search.derive(c).unwrap();
        consumers_of(ops).into_iter().map(derive).collect()
    };
    let ops = OperatorKind::QUERY_OPS;
    let two = |&op| [0.9, 0.8].map(|a| Consumer::new(op, a));
    let mixed: Vec<Consumer> = ops.iter().flat_map(two).collect();
    let mixed = fast_engine(reduced()).derive_consumption_formats(&mixed);
    let paper = ProfilerConfig::paper_evaluation;
    let inputs = [
        ("query B", paper(), paper_cfs(&[Motion, License, Ocr])),
        ("all 24 consumers", paper(), paper_cfs(&ops)),
        ("0.9 and 0.8", ProfilerConfig::fast_test(), mixed.unwrap()),
    ];

    let (mut rows, mut heuristic_wins, mut shares) = (Vec::new(), true, Vec::new());
    for (label, config, cfs) in &inputs {
        let mut storage = Vec::new();
        for strategy in [CoalesceStrategy::Heuristic, CoalesceStrategy::DistanceBased] {
            let fresh = profiler(config.clone());
            let started = Instant::now();
            let coalescer = Coalescer::new(&fresh).with_strategy(strategy);
            let result = coalescer.derive(cfs).unwrap();
            let wall = started.elapsed().as_secs_f64();
            let stats = fresh.stats();
            let (runs, hits) = (stats.storage_runs, stats.storage_cache_hits);
            let share = runs as f64 / sf_space as f64;
            shares.push(share);
            let bytes = result.total_bytes_per_video_second;
            storage.push(bytes);
            let (sfs, cores, kb) = (result.formats.len(), result.total_ingest_cores, bytes.kib());
            let profiles = format!("{runs}|{:.1}%|{hits}", share * 100.0);
            let costs = format!("{kb:.0}|{cores:.2}|{wall:.3} s");
            rows.push(format!("{label}|{strategy:?}|{sfs}|{profiles}|{costs}"));
        }
        heuristic_wins &= storage[0] <= storage[1];
    }
    let mut card = Card::default();
    let headers = "CFs|strategy|SFs|SF profiles|of the space|memo hits|KB/s|cores|wall";
    let title = format!("Section 6.4: storage-format search, {sf_space} SFs");
    card.table(&title, headers, &rows);
    let bound = format!("each search profiles < {:.0}% of SFs", SHARE_BOUND * 100.0);
    card.check("heuristic stores <= distance-based", heuristic_wins);
    card.check(&bound, max(&shares) < SHARE_BOUND);
    let ours = format!("at most {:.1}% of {sf_space}", max(&shares) * 100.0);
    card.versus("share of the SF space profiled", ours, "~3% of 15K");
    card.finish();
}
