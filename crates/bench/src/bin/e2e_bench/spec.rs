//! What the benchmark runs and what it reports: the four workloads, the
//! run scale, and the metric tables. `BENCHMARK.json` at the repository
//! root is generated from these tables (a test keeps the two equal), and
//! the binary prints exactly the rows named here.

/// Segments per query window: 4 × 8 s = 32 s of video.
pub const WINDOW_SEGMENTS: u64 = 4;
/// Video seconds per segment.
pub const SEGMENT_SECONDS: f64 = 8.0;
/// Segments an `ingest_query_mix` window is drawn from, counted back from
/// the stream head.
pub const MIX_RECENT_SEGMENTS: u64 = 16;
/// Windows between two ingests of an `ingest_query_mix` client.
pub const MIX_QUERIES_PER_INGEST: usize = 8;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanUncached,
    ScanCached,
    ScanThrash,
    IngestQueryMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ScanUncached,
        Workload::ScanCached,
        Workload::ScanThrash,
        Workload::IngestQueryMix,
    ];

    /// The workloads `BENCHMARK.json` names, which the driver runs 22 times
    /// each. Three, not four: the driver's time limit then leaves every run
    /// 20 s of measurement and three set-ups. `scan_thrash` costs what
    /// `scan_uncached` costs and differs from it only in the cache policy,
    /// so it is the one left to `--all` and to paired runs by hand.
    #[cfg(test)]
    pub const CONTRACT: [Workload; 3] = [
        Workload::ScanUncached,
        Workload::ScanCached,
        Workload::IngestQueryMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanUncached => "scan_uncached",
            Workload::ScanCached => "scan_cached",
            Workload::ScanThrash => "scan_thrash",
            Workload::IngestQueryMix => "ingest_query_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(raw cache bytes, decoded cache entries)`; `None` disables both
    /// cache tiers. The scan working set is ~94 MB raw and 96 decoded
    /// entries: 256 MiB / 256 holds all of it, 24 MiB / 8 about a quarter
    /// of the raw bytes and a twelfth of the decoded entries.
    pub fn cache(self) -> Option<(u64, usize)> {
        match self {
            Workload::ScanUncached => None,
            Workload::ScanCached | Workload::IngestQueryMix => Some((256 << 20, 256)),
            Workload::ScanThrash => Some((24 << 20, 8)),
        }
    }

    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ScanUncached => {
                "cache off: every segment pays backend read, CRC, copy, parse, decode and \
                 convert, so storage and codec do the work (the paper's retrieval-bound case)"
            }
            Workload::ScanCached => {
                "same requests, working set fits the cache: storage I/O and codec drop out, \
                 leaving query accounting, operators, wire, queue and event-loop polling"
            }
            Workload::ScanThrash => {
                "cache a quarter of the working set, skewed window starts: admission, \
                 eviction and partial hit rates, which neither other scan exercises"
            }
            Workload::IngestQueryMix => {
                "one ingest per eight recent-window queries: transcode, put, cache \
                 invalidation and log growth beside hot and first-touch reads"
            }
        }
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Segments preloaded at set-up.
    pub preload: u64,
    /// Times the set-up sequence runs; `setup_s` is the median.
    pub setups: usize,
    /// Warm-up seconds after the deterministic pass over all windows.
    pub warmup_secs: f64,
    /// Measured rounds with tracing off.
    pub rounds: usize,
    /// Seconds per measured round.
    pub round_secs: f64,
    /// Seconds of the one traced round.
    pub traced_secs: f64,
    /// Calls per layer-walk row.
    pub walk_calls: usize,
}

impl Scale {
    /// `seconds` of measurement in rounds of one second. Many short rounds,
    /// because a timing is reported as the quiet value of its per-round
    /// values (`stats::quiet`): a burst of host interference spoils the
    /// rounds it falls in and leaves the reported value alone.
    pub fn for_seconds(seconds: f64) -> Scale {
        Scale {
            preload: 32,
            setups: 3,
            warmup_secs: 1.0,
            rounds: (seconds.round() as usize).max(1),
            round_secs: 1.0,
            traced_secs: 6.0,
            walk_calls: 20,
        }
    }

    /// The `--smoke` scale: every code path, a few seconds per workload.
    pub fn smoke() -> Scale {
        Scale {
            preload: 8,
            setups: 1,
            warmup_secs: 0.2,
            rounds: 2,
            round_secs: 1.0,
            traced_secs: 1.0,
            walk_calls: 2,
        }
    }

    /// Window start positions over the preloaded segments.
    pub fn window_starts(&self) -> u64 {
        self.preload - WINDOW_SEGMENTS + 1
    }
}

/// Seconds of measurement of a full (`--all`) run.
pub const FULL_SECONDS: f64 = 30.0;

/// `run_seconds` of `BENCHMARK.json`. The driver's 4 + 22 × 3 runs and two
/// builds must end within 3420 s, about 47 s a run; at 20 s a run takes
/// 33–36 s with its three set-ups, oracle and warm-up, which leaves a
/// quarter of the cap for a slower host.
#[cfg(test)]
const CONTRACT_SECONDS: u32 = 20;

/// A metric row: name, unit, and whether a higher value is better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The end-to-end metrics with the share of the baseline by which each
/// may worsen before a change is a regression.
///
/// The issue asked for 0.10 on the timing and memory metrics and 0.20 on
/// `setup_s`. This host does not support them: the driver accepts a
/// benchmark only when the quartiles of ten runs lie within the bound, and
/// on the 2-vCPU sandbox this was written on they lie 2.5–19 % of the
/// median apart, 22 % in one busy hour (README, "Stability on this host");
/// the run-to-run shifts are the host's, so longer rounds do not remove
/// them. Hence the contract's maximum. The byte
/// count is exact, so its bound is tight.
pub const END_TO_END: &[(Metric, f64)] = &[
    (lower("query_p50_ms", "ms"), 0.25),
    (higher("query_video_x_realtime", "x"), 0.25),
    (lower("ingest_p50_ms", "ms"), 0.25),
    (higher("ingest_video_x_realtime", "x"), 0.25),
    (lower("stored_bytes_per_video_s", "B/video_s"), 0.01),
    (lower("peak_rss_mib", "MiB"), 0.25),
    (lower("setup_s", "s"), 0.25),
];

/// The per-layer metrics: span ledger, client tails, counters, layer walk.
pub const PER_LAYER: &[Metric] = &[
    // (a) span ledger of the traced round, mean µs per request
    lower("client.unattributed_us", "us"),
    lower("serve.net_decode_us", "us"),
    lower("serve.queue_wait_us", "us"),
    lower("serve.worker_self_us", "us"),
    lower("serve.root_self_us", "us"),
    lower("query.execute_self_us", "us"),
    lower("query.stage_self_us.diff", "us"),
    lower("query.stage_self_us.snn", "us"),
    lower("query.stage_self_us.nn", "us"),
    lower("storage.read_disk_us", "us"),
    lower("storage.read_raw_cache_us", "us"),
    lower("storage.read_decoded_cache_us", "us"),
    lower("storage.read_cold_us", "us"),
    lower("storage.read_disk_span_us", "us"),
    lower("storage.reads_disk_per_query", "count"),
    lower("storage.reads_raw_cache_per_query", "count"),
    higher("storage.reads_decoded_cache_per_query", "count"),
    lower("storage.reads_cold_per_query", "count"),
    lower("ingest.execute_self_us", "us"),
    lower("ingest.transcode_us", "us"),
    lower("ledger.other_us", "us"),
    higher("ledger.reconcile_pct", "%"),
    lower("obs.trace_overhead_pct", "%"),
    lower("obs.spans_dropped", "count"),
    // client-side tails of the measured rounds, with their sample counts
    lower("client.query_tail_ms", "ms"),
    higher("client.query_tail_pct", "%"),
    higher("client.query_samples", "count"),
    lower("client.ingest_tail_ms", "ms"),
    higher("client.ingest_tail_pct", "%"),
    higher("client.ingest_samples", "count"),
    lower("client.failed_share", "ratio"),
    // (b) counter deltas across the measured rounds
    higher("storage.cache_raw_hit_rate", "ratio"),
    higher("storage.cache_decoded_hit_rate", "ratio"),
    lower("storage.cache_raw_evictions", "count"),
    lower("storage.cache_decoded_evictions", "count"),
    lower("storage.cache_invalidations", "count"),
    lower("storage.store_reads", "count"),
    lower("storage.store_writes", "count"),
    lower("storage.bytes_read_per_query", "B"),
    lower("storage.disk_bytes", "B"),
    lower("storage.live_bytes", "B"),
    lower("query.segments_processed_per_query", "count"),
    lower("query.frames_consumed_per_query", "count"),
    lower("ingest.bytes_written_per_segment", "B"),
    higher("serve.mean_batch", "count"),
    lower("serve.writes_per_response", "count"),
    higher("serve.pool_hit_rate", "ratio"),
    lower("serve.rejected_busy", "count"),
    // (c) layer walk, single-threaded medians
    lower("datasets.segment_us", "us"),
    lower("codec.transcode_us.fmt0", "us"),
    lower("codec.transcode_us.fmt1", "us"),
    lower("codec.transcode_us.fmt2", "us"),
    lower("codec.to_bytes_us.fmt0", "us"),
    lower("codec.from_bytes_us.fmt0", "us"),
    lower("codec.decode_sampled_us.fmt0", "us"),
    lower("codec.decode_sampled_us.fmt1", "us"),
    lower("codec.decode_sampled_us.fmt2", "us"),
    lower("codec.convert_us.fmt0", "us"),
    higher("codec.crc32_mib_per_s", "MiB/s"),
    higher("storage.put_mib_per_s.fs", "MiB/s"),
    higher("storage.put_mib_per_s.mem", "MiB/s"),
    higher("storage.get_mib_per_s.fs", "MiB/s"),
    higher("storage.get_mib_per_s.mem", "MiB/s"),
    higher("storage.backend_read_at_mib_per_s.fs", "MiB/s"),
    higher("storage.backend_read_at_mib_per_s.mem", "MiB/s"),
    lower("storage.get_overhead_us.fs", "us"),
    lower("storage.reader_raw_hit_us", "us"),
    lower("storage.reader_decoded_hit_us", "us"),
    lower("storage.reopen_ms", "ms"),
    lower("ops.run_us.diff", "us"),
    lower("ops.run_us.snn", "us"),
    lower("ops.run_us.nn", "us"),
    lower("ops.run_us.motion", "us"),
    lower("ops.run_us.license", "us"),
    lower("ops.run_us.ocr", "us"),
    lower("serve.wire_request_roundtrip_us", "us"),
    lower("serve.wire_response_roundtrip_us", "us"),
    lower("serve.net_ping_rtt_us", "us"),
    lower("core.derive_s", "s"),
    lower("host.calibration_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use vstore::obs::json;

    /// `BENCHMARK.json` as the tables above define it.
    fn benchmark_json() -> String {
        fn metric_rows(out: &mut String, rows: &[(Metric, Option<f64>)]) {
            for (i, (metric, bound)) in rows.iter().enumerate() {
                out.push_str("    {");
                json::push_key(out, "name");
                json::push_string(out, metric.name);
                out.push_str(", ");
                json::push_key(out, "unit");
                json::push_string(out, metric.unit);
                out.push_str(", ");
                json::push_key(out, "better");
                json::push_string(
                    out,
                    if metric.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    },
                );
                if let Some(bound) = bound {
                    out.push_str(", ");
                    json::push_key(out, "bound");
                    json::push_f64(out, *bound);
                }
                out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
            }
        }
        let mut out = String::from("{\n  ");
        json::push_key(&mut out, "command");
        out.push('[');
        let command = [
            "cargo",
            "run",
            "--release",
            "--quiet",
            "-p",
            "vstore-bench",
            "--bin",
            "e2e_bench",
            "--",
        ];
        for (i, word) in command.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_string(&mut out, word);
        }
        out.push_str("],\n  ");
        json::push_key(&mut out, "paths");
        out.push('[');
        json::push_string(&mut out, "crates/bench/src/bin/e2e_bench");
        out.push_str("],\n  ");
        json::push_key(&mut out, "run_seconds");
        out.push_str(&format!("{CONTRACT_SECONDS},\n  "));
        json::push_key(&mut out, "workloads");
        out.push_str("[\n");
        for (i, workload) in Workload::CONTRACT.iter().enumerate() {
            out.push_str("    {");
            json::push_key(&mut out, "name");
            json::push_string(&mut out, workload.name());
            out.push_str(", ");
            json::push_key(&mut out, "why");
            json::push_string(&mut out, workload.why());
            out.push_str(if i + 1 < Workload::CONTRACT.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ],\n  ");
        json::push_key(&mut out, "end_to_end");
        out.push_str("[\n");
        let rows: Vec<_> = END_TO_END.iter().map(|(m, b)| (*m, Some(*b))).collect();
        metric_rows(&mut out, &rows);
        out.push_str("  ],\n  ");
        json::push_key(&mut out, "per_layer");
        out.push_str("[\n");
        let rows: Vec<_> = PER_LAYER.iter().map(|m| (*m, None)).collect();
        metric_rows(&mut out, &rows);
        out.push_str("  ]\n}\n");
        out
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let expected = benchmark_json();
        json::validate(&expected).expect("generated BENCHMARK.json is valid JSON");
        let checked_in = include_str!("../../../../../BENCHMARK.json");
        assert!(
            checked_in == expected,
            "BENCHMARK.json is out of date; it should read:\n{expected}"
        );
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(m, _)| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (metric, bound) in END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", metric.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        for workload in Workload::ALL {
            assert!(workload.why().len() <= 200, "{}", workload.name());
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert!(Workload::CONTRACT.iter().all(|w| Workload::ALL.contains(w)));
        // 4 + 22 runs per workload at ~16 s beside the measurement, and two
        // builds, within the driver's 3420 s.
        let runs = 4 + 22 * Workload::CONTRACT.len() as u32;
        assert!(runs * (CONTRACT_SECONDS + 16) + 120 < 3420 * 4 / 5);
    }
}
