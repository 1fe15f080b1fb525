//! The layer walk: the bench's own timings around each layer's public
//! functions, single-threaded, over the segments of the first query window.
//! Where the span ledger says *which* layer a request waited in, the walk
//! says what one call into that layer costs when nothing contends with it.
//!
//! Every row is the median of `calls` calls, except `core.derive_s` and
//! `storage.reopen_ms`, whose calls take a second and a third of a second:
//! they take the median of `calls.min(3)` and `calls.min(5)`.

use crate::spec::WINDOW_SEGMENTS;
use crate::{host, stats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use vstore::codec::{SegmentData, Transcoder, VideoFrame};
use vstore::datasets::{Dataset, VideoSource};
use vstore::ops::OperatorLibrary;
use vstore::sim::CodingCostModel;
use vstore::storage::{SegmentKey, SegmentStore};
use vstore::types::{FormatId, FrameSampling, OperatorKind, DEFAULT_SHARDS};
use vstore::{
    BackendOptions, Configuration, IngestRequest, NetClient, NetOptions, QueryRequest, QuerySpec,
    Result, SegmentReader, ServeOptions, ServeRequest, ServeResponse, VStore, VStoreError,
    VStoreOptions,
};

const MIB: f64 = 1024.0 * 1024.0;

/// Median wall time in µs of `calls` calls of `f(i)`; the first error ends
/// the row.
fn try_median_us(calls: usize, mut f: impl FnMut(usize) -> Result<()>) -> Result<f64> {
    let mut samples = Vec::with_capacity(calls.max(1));
    for i in 0..calls.max(1) {
        let started = Instant::now();
        f(i)?;
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&samples))
}

/// [`try_median_us`] for calls that cannot fail.
fn median_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    try_median_us(calls, |i| {
        f(i);
        Ok(())
    })
    .expect("an infallible call")
}

fn mib_per_s(bytes: usize, us: f64) -> f64 {
    bytes as f64 / MIB / (us / 1e6).max(1e-12)
}

/// One storage format of the derived configuration with the window's
/// segments transcoded into it.
struct Format {
    id: FormatId,
    /// Sampling of the consumer subscribed to the format.
    sampling: FrameSampling,
    segments: Vec<SegmentData>,
}

/// The frames a consumer of `op` is fed from one segment of its format.
fn consumer_frames(
    config: &Configuration,
    formats: &[Format],
    transcoder: &Transcoder,
    op: OperatorKind,
) -> Result<Vec<VideoFrame>> {
    let subscription = config
        .subscriptions
        .iter()
        .find(|s| s.consumer.op == op)
        .ok_or_else(|| VStoreError::InvalidState(format!("no subscription for {op}")))?;
    let format = formats
        .iter()
        .find(|f| f.id == subscription.storage)
        .ok_or_else(|| VStoreError::InvalidState(format!("no format for {op}")))?;
    let (frames, _) = format.segments[0].decode_sampled(format.sampling)?;
    transcoder.convert_for_consumption(&frames, &subscription.consumption)
}

/// The `put`, `get` and `read_at` rows of one backend, plus the reopen
/// time of the filesystem store. Values are the golden-format segments.
fn storage_rows(
    backend: BackendOptions,
    label: &str,
    dir: &Path,
    values: &[Vec<u8>],
    calls: usize,
    rows: &mut BTreeMap<String, f64>,
) -> Result<()> {
    let store = SegmentStore::open_with_options(dir, backend, DEFAULT_SHARDS)?;
    let key = |i: usize| SegmentKey::new("walk", FormatId::GOLDEN, i as u64);
    let value = |i: usize| &values[i % values.len()];
    let put_us = try_median_us(calls, |i| store.put(&key(i), value(i)))?;
    let get_us = try_median_us(calls, |i| match store.get(&key(i))? {
        Some(bytes) if bytes.len() == value(i).len() => {
            black_box(bytes);
            Ok(())
        }
        _ => Err(VStoreError::corruption(
            "walk: stored value missing or short",
        )),
    })?;
    // The same byte count straight off the backend: no index, no CRC, no
    // record parse. Any value log of a shard that holds enough bytes will do.
    let len = values[0].len() as u64;
    let backend_handle = Arc::clone(store.backend());
    let mut log_name = None;
    for shard in backend_handle.list("")? {
        // The root also holds plain files (the shard-count record).
        for file in backend_handle.list(&shard).unwrap_or_default() {
            let name = format!("{shard}/{file}");
            if backend_handle.len(&name)?.is_some_and(|bytes| bytes >= len) {
                log_name = Some(name);
            }
        }
    }
    let log_name =
        log_name.ok_or_else(|| VStoreError::InvalidState("walk: no value log found".into()))?;
    let read_at_us = try_median_us(calls, |_| {
        black_box(backend_handle.read_at(&log_name, 0, len)?);
        Ok(())
    })?;
    let bytes = values[0].len();
    rows.insert(
        format!("storage.put_mib_per_s.{label}"),
        mib_per_s(bytes, put_us),
    );
    rows.insert(
        format!("storage.get_mib_per_s.{label}"),
        mib_per_s(bytes, get_us),
    );
    rows.insert(
        format!("storage.backend_read_at_mib_per_s.{label}"),
        mib_per_s(bytes, read_at_us),
    );
    if backend == BackendOptions::Fs {
        rows.insert("storage.get_overhead_us.fs".into(), get_us - read_at_us);
        drop(store);
        let reopen_us = try_median_us(calls.min(5), |_| {
            SegmentStore::open_with_options(dir, backend, DEFAULT_SHARDS).map(drop)
        })?;
        rows.insert("storage.reopen_ms".into(), reopen_us / 1e3);
    }
    Ok(())
}

/// Run the walk with `calls` calls per row, using `work_dir` for the one
/// filesystem store it needs (removed before returning).
pub fn run(calls: usize, work_dir: &Path) -> Result<BTreeMap<String, f64>> {
    let mut rows = BTreeMap::new();
    rows.insert("host.calibration_ms".to_owned(), host::calibration_ms());
    let spec = QuerySpec::query_a(0.8);
    let source = VideoSource::new(Dataset::Jackson);
    let window = WINDOW_SEGMENTS as usize;

    // Core: backward derivation, on a fresh store each time because the
    // profiler memoises within one.
    let mut derive_secs = Vec::new();
    let mut store = None;
    for _ in 0..calls.clamp(1, 3) {
        let fresh = VStore::open(
            "unused",
            VStoreOptions::fast().with_backend(BackendOptions::Mem),
        )?;
        let started = Instant::now();
        fresh.configure(&spec.consumers())?;
        derive_secs.push(started.elapsed().as_secs_f64());
        store = Some(fresh);
    }
    rows.insert("core.derive_s".into(), stats::median(&derive_secs));
    let store = store.expect("derived at least once");
    let config = store.configuration().expect("configured above");

    // Datasets and codec.
    let transcoder = Transcoder::new(CodingCostModel::paper_testbed());
    let motion = source.motion_intensity();
    rows.insert(
        "datasets.segment_us".into(),
        median_us(calls, |i| {
            black_box(source.segment((i % window) as u64));
        }),
    );
    let scenes: Vec<_> = (0..window).map(|k| source.segment(k as u64)).collect();
    let mut formats = Vec::new();
    for (id, format) in &config.storage_formats {
        let mut segments = Vec::new();
        let us = try_median_us(calls.max(window), |i| {
            let out = transcoder.transcode_segment(&scenes[i % window], format, motion)?;
            if i < window {
                segments.push(out.data);
            }
            Ok(())
        })?;
        rows.insert(format!("codec.transcode_us.fmt{}", id.0), us);
        let sampling = config
            .subscriptions
            .iter()
            .find(|s| s.storage == *id)
            .map_or(FrameSampling::Full, |s| s.consumption.fidelity.sampling);
        let us = try_median_us(calls, |i| {
            black_box(segments[i % window].decode_sampled(sampling)?);
            Ok(())
        })?;
        rows.insert(format!("codec.decode_sampled_us.fmt{}", id.0), us);
        formats.push(Format {
            id: *id,
            sampling,
            segments,
        });
    }
    let golden = formats
        .iter()
        .find(|f| f.id == FormatId::GOLDEN)
        .ok_or_else(|| VStoreError::InvalidState("configuration lacks a golden format".into()))?;
    let golden_bytes: Vec<Vec<u8>> = golden.segments.iter().map(SegmentData::to_bytes).collect();
    rows.insert(
        "codec.to_bytes_us.fmt0".into(),
        median_us(calls, |i| {
            black_box(golden.segments[i % window].to_bytes());
        }),
    );
    rows.insert(
        "codec.from_bytes_us.fmt0".into(),
        try_median_us(calls, |i| {
            black_box(SegmentData::from_bytes(&golden_bytes[i % window])?);
            Ok(())
        })?,
    );
    let crc_us = median_us(calls, |i| {
        black_box(vstore::codec::wire::crc32(&golden_bytes[i % window]));
    });
    rows.insert(
        "codec.crc32_mib_per_s".into(),
        mib_per_s(golden_bytes[0].len(), crc_us),
    );
    let nn = config
        .subscriptions
        .iter()
        .find(|s| s.storage == FormatId::GOLDEN)
        .ok_or_else(|| {
            VStoreError::InvalidState("nothing subscribes to the golden format".into())
        })?;
    let (golden_frames, _) = golden.segments[0].decode_sampled(golden.sampling)?;
    rows.insert(
        "codec.convert_us.fmt0".into(),
        try_median_us(calls, |_| {
            black_box(transcoder.convert_for_consumption(&golden_frames, &nn.consumption)?);
            Ok(())
        })?,
    );

    // Storage: both backends, then the reader's two cache tiers.
    let fs_dir = work_dir.join(format!("walk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fs_dir);
    let fs_rows = storage_rows(
        BackendOptions::Fs,
        "fs",
        &fs_dir,
        &golden_bytes,
        calls,
        &mut rows,
    );
    let _ = std::fs::remove_dir_all(&fs_dir);
    fs_rows?;
    storage_rows(
        BackendOptions::Mem,
        "mem",
        &fs_dir,
        &golden_bytes,
        calls,
        &mut rows,
    )?;
    let key = SegmentKey::new("walk", FormatId::GOLDEN, 0);
    for (row, decoded_entries) in [
        ("storage.reader_raw_hit_us", 0),
        ("storage.reader_decoded_hit_us", 64),
    ] {
        let mem = Arc::new(SegmentStore::open_mem_with_shards(DEFAULT_SHARDS)?);
        let reader = SegmentReader::new(mem, 256 << 20, decoded_entries);
        reader.put(&key, &golden_bytes[0])?;
        reader.get_decoded(&key, golden.sampling)?;
        let us = try_median_us(calls, |_| {
            black_box(reader.get_decoded(&key, golden.sampling)?);
            Ok(())
        })?;
        rows.insert(row.into(), us);
    }

    // Ops: each operator on the frames its consumer gets from one segment.
    // Query A configures no consumer for the query-B operators; they run on
    // the full NN's frames.
    let library = OperatorLibrary::paper_testbed();
    for (row, op, fed_as) in [
        ("diff", OperatorKind::Diff, OperatorKind::Diff),
        (
            "snn",
            OperatorKind::SpecializedNN,
            OperatorKind::SpecializedNN,
        ),
        ("nn", OperatorKind::FullNN, OperatorKind::FullNN),
        ("motion", OperatorKind::Motion, OperatorKind::FullNN),
        ("license", OperatorKind::License, OperatorKind::FullNN),
        ("ocr", OperatorKind::Ocr, OperatorKind::FullNN),
    ] {
        let frames = consumer_frames(&config, &formats, &transcoder, fed_as)?;
        let operator = library.instantiate(op);
        rows.insert(
            format!("ops.run_us.{row}"),
            median_us(calls, |_| {
                black_box(operator.run(&frames));
            }),
        );
    }

    // Serve: the wire codec on a real request and reply, then a ping over
    // a socket to a server that has nothing else to do.
    store.ingest(IngestRequest::new(&source).segments(WINDOW_SEGMENTS))?;
    let request = ServeRequest::Query {
        stream: source.name().to_owned(),
        spec: spec.clone(),
        first_segment: 0,
        count: WINDOW_SEGMENTS,
    };
    let response = ServeResponse::Query(
        store.query(QueryRequest::new(source.name(), &spec).segments(WINDOW_SEGMENTS))?,
    );
    rows.insert(
        "serve.wire_request_roundtrip_us".into(),
        try_median_us(calls, |_| {
            black_box(ServeRequest::from_wire(&request.to_wire())?);
            Ok(())
        })?,
    );
    rows.insert(
        "serve.wire_response_roundtrip_us".into(),
        try_median_us(calls, |_| {
            black_box(ServeResponse::from_wire(&response.to_wire())?);
            Ok(())
        })?,
    );
    let server = store.serve_net(
        "127.0.0.1:0",
        NetOptions::default(),
        ServeOptions::default(),
    )?;
    let mut client = NetClient::connect(server.local_addr())?;
    let ping_us = try_median_us(calls * 10, |_| {
        client.call(&ServeRequest::LiveStats).map(drop)
    });
    drop(client);
    drop(server);
    rows.insert("serve.net_ping_rtt_us".into(), ping_us?);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;

    #[test]
    fn walk_reports_every_row_of_its_table() {
        let dir = std::env::temp_dir().join(format!("e2e_bench-walk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let rows = run(1, &dir).expect("the walk completes");
        let _ = std::fs::remove_dir_all(&dir);
        let first = PER_LAYER
            .iter()
            .position(|m| m.name == "datasets.segment_us")
            .expect("the walk rows start at the datasets row");
        for metric in &PER_LAYER[first..] {
            let value = rows.get(metric.name).copied();
            assert!(
                value.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}: {value:?}",
                metric.name
            );
        }
        assert_eq!(
            rows.len(),
            PER_LAYER.len() - first,
            "a row outside the table"
        );
    }
}
