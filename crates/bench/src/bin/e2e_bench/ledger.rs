//! The span ledger: where the wall time of a traced request went.
//!
//! Every instant of a trace is charged to the innermost span open at that
//! instant — a span's *self time* is its duration minus whatever its
//! contained spans cover. `read.*` spans of one query stage run on
//! parallel prefetch threads and overlap; an instant covered by several
//! innermost spans is split evenly between them, so the rows of one trace
//! always add up to exactly its duration and the ledger can be reconciled
//! against the latency the client saw.

use std::collections::BTreeMap;
use vstore::obs::{TraceRecord, TraceSpan};

/// Timestamps are truncated to whole µs independently for start and
/// duration, so a child can appear to outlast its parent by this much.
const CONTAINMENT_SLACK_US: u64 = 2;

#[derive(Debug, Clone, Copy)]
struct Interval {
    start: u64,
    end: u64,
}

impl Interval {
    fn len(self) -> u64 {
        self.end - self.start
    }

    fn covers(self, start: u64, end: u64) -> bool {
        self.start <= start && end <= self.end
    }
}

/// Whether interval `outer` (index `i`) contains `inner` (index `j`).
/// Equal intervals nest by index so that exactly one contains the other.
fn contains(outer: Interval, i: usize, inner: Interval, j: usize) -> bool {
    if i == j {
        return false;
    }
    let fits = outer.start <= inner.start + CONTAINMENT_SLACK_US
        && inner.end <= outer.end + CONTAINMENT_SLACK_US;
    fits && (outer.len() > inner.len() || (outer.len() == inner.len() && i < j))
}

/// Self time in µs of the trace root followed by each span of `spans`, in
/// order. The values add up to `dur_us`.
pub fn self_times(dur_us: u64, spans: &[TraceSpan]) -> Vec<f64> {
    // Index 0 is the root; spans are clipped to it.
    let mut intervals = vec![Interval {
        start: 0,
        end: dur_us,
    }];
    intervals.extend(spans.iter().map(|span| Interval {
        start: span.start_us.min(dur_us),
        end: span.end_us().min(dur_us),
    }));
    let mut cuts: Vec<u64> = intervals.iter().flat_map(|i| [i.start, i.end]).collect();
    cuts.sort_unstable();
    cuts.dedup();

    let mut out = vec![0.0; intervals.len()];
    let mut open = Vec::new();
    for piece in cuts.windows(2) {
        let (start, end) = (piece[0], piece[1]);
        open.clear();
        open.extend(
            intervals
                .iter()
                .enumerate()
                .filter(|(_, interval)| interval.covers(start, end)),
        );
        // Innermost: open spans that contain no other open span.
        let innermost: Vec<usize> = open
            .iter()
            .filter(|(i, outer)| {
                !open
                    .iter()
                    .any(|(j, inner)| contains(**outer, *i, **inner, *j))
            })
            .map(|(i, _)| *i)
            .collect();
        let share = (end - start) as f64 / innermost.len() as f64;
        for i in innermost {
            out[i] += share;
        }
    }
    out
}

/// Rows of spans a workload may never open (no disk read on a cached
/// scan, no ingest on any scan); they report 0 rather than go missing.
const SOMETIMES_IDLE: [&str; 7] = [
    "storage.read_disk_us",
    "storage.read_raw_cache_us",
    "storage.read_decoded_cache_us",
    "storage.read_cold_us",
    "ingest.execute_self_us",
    "ingest.transcode_us",
    "ledger.other_us",
];

/// The ledger row a span reports under.
fn row_name(span: &TraceSpan) -> String {
    match span.name.as_str() {
        "net.decode" => "serve.net_decode_us".into(),
        "queue.wait" => "serve.queue_wait_us".into(),
        "worker.execute" => "serve.worker_self_us".into(),
        "query.execute" => "query.execute_self_us".into(),
        "query.stage" => {
            let op: String = span
                .detail
                .chars()
                .filter(char::is_ascii_alphanumeric)
                .map(|c| c.to_ascii_lowercase())
                .collect();
            format!("query.stage_self_us.{op}")
        }
        "read.disk" => "storage.read_disk_us".into(),
        "read.raw_cache" => "storage.read_raw_cache_us".into(),
        "read.decoded_cache" => "storage.read_decoded_cache_us".into(),
        "read.cold" => "storage.read_cold_us".into(),
        "ingest.execute" => "ingest.execute_self_us".into(),
        "ingest.transcode" => "ingest.transcode_us".into(),
        // A span this table does not know still reconciles: it is reported,
        // never dropped.
        _ => "ledger.other_us".into(),
    }
}

/// Ledger rows aggregated over the traces of one traced round.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Traces aggregated, and how many of them were queries.
    pub requests: u64,
    queries: u64,
    /// Sum of the traces' end-to-end durations, µs.
    traced_us: f64,
    /// Self time per row, summed over all traces, µs.
    self_us: BTreeMap<String, f64>,
    /// `read.*` spans seen, by span name.
    reads: BTreeMap<String, u64>,
    /// Sum of `read.disk` span durations (thread time, not wall share).
    read_disk_span_us: f64,
}

impl Ledger {
    pub fn add(&mut self, record: &TraceRecord) {
        self.requests += 1;
        if record.root == "query" {
            self.queries += 1;
        }
        self.traced_us += record.dur_us as f64;
        let times = self_times(record.dur_us, &record.spans);
        *self.self_us.entry("serve.root_self_us".into()).or_default() += times[0];
        for (span, self_us) in record.spans.iter().zip(&times[1..]) {
            *self.self_us.entry(row_name(span)).or_default() += self_us;
            if span.name.starts_with("read.") {
                *self.reads.entry(span.name.clone()).or_default() += 1;
            }
            if span.name == "read.disk" {
                self.read_disk_span_us += span.dur_us as f64;
            }
        }
    }

    /// The ledger as metric rows. `client_us` is the sum of the latencies
    /// the client measured for the same requests: what it saw beyond the
    /// traces is `client.unattributed_us`, and `ledger.reconcile_pct` is
    /// the share of its time the span rows explain.
    pub fn rows(&self, client_us: f64) -> BTreeMap<String, f64> {
        let requests = self.requests.max(1) as f64;
        let queries = self.queries.max(1) as f64;
        let mut rows: BTreeMap<String, f64> = SOMETIMES_IDLE
            .iter()
            .map(|name| ((*name).to_owned(), 0.0))
            .collect();
        rows.extend(
            self.self_us
                .iter()
                .map(|(name, us)| (name.clone(), us / requests)),
        );
        rows.insert(
            "client.unattributed_us".into(),
            (client_us - self.traced_us) / requests,
        );
        rows.insert(
            "ledger.reconcile_pct".into(),
            if client_us > 0.0 {
                100.0 * self.self_us.values().sum::<f64>() / client_us
            } else {
                0.0
            },
        );
        for source in ["disk", "raw_cache", "decoded_cache", "cold"] {
            let count = self
                .reads
                .get(&format!("read.{source}"))
                .copied()
                .unwrap_or(0);
            rows.insert(
                format!("storage.reads_{source}_per_query"),
                count as f64 / queries,
            );
        }
        let disk_reads = self.reads.get("read.disk").copied().unwrap_or(0).max(1);
        rows.insert(
            "storage.read_disk_span_us".into(),
            self.read_disk_span_us / disk_reads as f64,
        );
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, detail: &str, start_us: u64, dur_us: u64, tid: u64) -> TraceSpan {
        TraceSpan {
            name: name.into(),
            detail: detail.into(),
            start_us,
            dur_us,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A stage of 100 µs with two reads on different threads that
        // overlap for 20 µs: they cover [10, 70), so the stage keeps 40.
        let spans = [
            span("query.stage", "Diff", 0, 100, 1),
            span("read.disk", "", 10, 40, 2),
            span("read.disk", "", 30, 40, 3),
        ];
        let times = self_times(100, &spans);
        assert_eq!(times[0], 0.0, "root is fully covered by the stage");
        assert_eq!(times[1], 40.0);
        // Each read owns its exclusive 20 µs plus half of the shared 20.
        assert_eq!(times[2], 30.0);
        assert_eq!(times[3], 30.0);
        assert_eq!(times.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn nested_spans_partition_the_trace_exactly() {
        let spans = [
            span("queue.wait", "", 0, 30, 1),
            span("net.decode", "", 2, 8, 1),
            span("worker.execute", "", 30, 60, 2),
            span("query.execute", "", 32, 50, 2),
            // Truncation artefact: ends 1 µs past its parent.
            span("query.stage", "NN", 40, 43, 2),
        ];
        let times = self_times(100, &spans);
        assert_eq!(times[0], 10.0, "root keeps [90, 100)");
        assert_eq!(times[1], 22.0, "queue wait minus the decode inside it");
        assert_eq!(times[2], 8.0);
        assert_eq!(times[3], 9.0, "worker keeps [30, 32) and [83, 90)");
        // The stage is charged as a child of query.execute despite the
        // overhang: execute keeps [32, 40) and nothing double counts.
        assert_eq!(times[4], 8.0);
        assert_eq!(times[5], 43.0);
        assert_eq!(times.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn identical_intervals_and_spans_past_the_root_are_handled() {
        let spans = [
            span("read.disk", "", 0, 50, 1),
            span("read.disk", "", 0, 50, 2),
            span("late", "", 90, 40, 1),
        ];
        let times = self_times(100, &spans);
        assert_eq!(times.iter().sum::<f64>(), 100.0);
        assert_eq!(
            times[1], 0.0,
            "the first of two equal spans is the outer one"
        );
        assert_eq!(times[2], 50.0);
        assert_eq!(times[3], 10.0, "clipped to the root");
    }

    #[test]
    fn ledger_rows_reconcile_with_the_client_view() {
        let record = TraceRecord {
            trace_id: 1,
            root: "query".into(),
            start_us: 0,
            dur_us: 100,
            sampled: true,
            slow: false,
            spans: vec![
                span("worker.execute", "", 5, 90, 1),
                span("query.stage", "S-NN", 10, 80, 1),
                span("read.disk", "", 20, 30, 2),
                span("mystery", "", 60, 10, 1),
            ],
        };
        let mut ledger = Ledger::default();
        ledger.add(&record);
        ledger.add(&record);
        let rows = ledger.rows(250.0);
        assert_eq!(rows["serve.root_self_us"], 10.0);
        assert_eq!(rows["serve.worker_self_us"], 10.0);
        assert_eq!(rows["query.stage_self_us.snn"], 40.0);
        assert_eq!(rows["storage.read_disk_us"], 30.0);
        assert_eq!(rows["ledger.other_us"], 10.0);
        assert_eq!(rows["client.unattributed_us"], 25.0);
        assert_eq!(rows["ledger.reconcile_pct"], 80.0);
        assert_eq!(rows["storage.reads_disk_per_query"], 1.0);
        assert_eq!(rows["storage.read_disk_span_us"], 30.0);
    }
}
