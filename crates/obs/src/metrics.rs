//! The unified metrics registry: typed counter/gauge/histogram families
//! collected from every stats source and rendered as Prometheus-style
//! text exposition or JSON.
//!
//! Stats sources stay what they are — plain snapshot structs like
//! `StoreStats` or `ServeStats` — and register a [`Collector`] that maps
//! the current snapshot into [`Metric`] rows on demand.
//! [`MetricsRegistry::snapshot`] walks the collectors, sorts the rows
//! into a stable order, and returns a [`MetricsSnapshot`] that can travel
//! over the serve wire.

use crate::json;
use std::sync::Mutex;
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{LatencyHistogram, HISTOGRAM_BUCKETS};

/// The value of one metric row.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(f64),
    /// A latency/size distribution.
    Histogram(HistogramSnapshot),
}

/// A histogram's buckets at snapshot time. Buckets are *non-cumulative*
/// here: `counts[i]` holds the samples in `(bounds[i - 1], bounds[i]]`,
/// and samples above the last bound count only in `count`. The Prometheus
/// renderer accumulates them into the exposition format's cumulative,
/// inclusive `le` series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bound of each bucket (µs for latency histograms), ascending.
    pub bounds: Vec<u64>,
    /// Samples that fell in each bucket (same length as `bounds`).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Snapshot a [`LatencyHistogram`]: one bucket per power-of-two bin
    /// up to the highest populated one, inclusive bounds in µs. Bin `i`
    /// holds `[2^(i-1), 2^i)` µs and samples are whole µs, so its bound
    /// is `2^i - 1`. The top bin (`≥ 2^30` µs) has no finite bound and
    /// counts only in `count`.
    #[must_use]
    pub fn from_latency(hist: &LatencyHistogram) -> HistogramSnapshot {
        let (buckets, count, total_us, max_us) = hist.to_parts();
        let mut bounds = Vec::new();
        let mut counts = Vec::new();
        let top = buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        for (i, &bucket_count) in buckets
            .iter()
            .enumerate()
            .take(top.min(HISTOGRAM_BUCKETS - 1))
        {
            bounds.push((1u64 << i) - 1);
            counts.push(bucket_count);
        }
        HistogramSnapshot {
            bounds,
            counts,
            count,
            sum: total_us,
            max: max_us,
        }
    }
}

/// One metric row: a name, optional labels, and a typed value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Prometheus-style snake_case name, e.g. `vstore_store_puts_total`.
    pub name: String,
    /// One-line human description.
    pub help: String,
    /// Label pairs, e.g. `("shard", "3")`.
    pub labels: Vec<(String, String)>,
    /// The typed value.
    pub value: MetricValue,
}

impl Metric {
    /// A counter row.
    #[must_use]
    pub fn counter(name: &str, help: &str, value: u64) -> Metric {
        Metric {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: Vec::new(),
            value: MetricValue::Counter(value),
        }
    }

    /// A gauge row.
    #[must_use]
    pub fn gauge(name: &str, help: &str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: Vec::new(),
            value: MetricValue::Gauge(value),
        }
    }

    /// A histogram row from a [`LatencyHistogram`].
    #[must_use]
    pub fn latency(name: &str, help: &str, hist: &LatencyHistogram) -> Metric {
        Metric {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: Vec::new(),
            value: MetricValue::Histogram(HistogramSnapshot::from_latency(hist)),
        }
    }

    /// Attach a label pair.
    #[must_use]
    pub fn with_label(mut self, key: &str, value: impl std::fmt::Display) -> Metric {
        self.labels.push((key.to_owned(), value.to_string()));
        self
    }

    /// The exposition type keyword of this row's value.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    /// Render `{label="value",…}` (empty string when unlabelled), with an
    /// extra pair appended (used for histogram `le` buckets).
    fn label_block(&self, extra: Option<(&str, &str)>) -> String {
        if self.labels.is_empty() && extra.is_none() {
            return String::new();
        }
        let mut out = String::from("{");
        let mut first = true;
        for (key, value) in self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra)
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(key);
            out.push_str("=\"");
            push_escaped(&mut out, value, true);
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// Append `text` escaped for the exposition format: `\` and newline
/// always, `"` only inside a label value.
fn push_escaped(out: &mut String, text: &str, quotes: bool) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' if quotes => out.push_str("\\\""),
            c => out.push(c),
        }
    }
}

/// A gauge as rendered: a non-finite value shows as 0, never NaN.
fn finite_or_zero(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// The registry's materialized output: every collector's rows in stable
/// `(name, labels)` order. `Display` renders the operator report, one
/// line per row: `name{labels} value`, or `name{labels} n=… mean=… max=…`
/// for a histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The metric rows.
    pub metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// Render as Prometheus text exposition (version 0.0.4): `# HELP` /
    /// `# TYPE` headers once per family, histogram families expanded
    /// into cumulative `_bucket{le=…}` series plus `_sum` and `_count`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for metric in &self.metrics {
            if metric.name != last_family {
                out.push_str(&format!("# HELP {} ", metric.name));
                push_escaped(&mut out, &metric.help, false);
                out.push('\n');
                out.push_str(&format!("# TYPE {} {}\n", metric.name, metric.type_name()));
                last_family = &metric.name;
            }
            match &metric.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        metric.name,
                        metric.label_block(None)
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        metric.name,
                        metric.label_block(None),
                        finite_or_zero(*v)
                    ));
                }
                MetricValue::Histogram(hist) => {
                    let mut cumulative = 0u64;
                    for (bound, count) in hist.bounds.iter().zip(&hist.counts) {
                        cumulative = cumulative.saturating_add(*count);
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            metric.name,
                            metric.label_block(Some(("le", &bound.to_string())))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        metric.name,
                        metric.label_block(Some(("le", "+Inf"))),
                        hist.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        metric.name,
                        metric.label_block(None),
                        hist.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        metric.name,
                        metric.label_block(None),
                        hist.count
                    ));
                }
            }
        }
        out
    }

    /// Render as a JSON array of rows, stable field order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n ");
            }
            out.push('{');
            json::push_key(&mut out, "name");
            json::push_string(&mut out, &metric.name);
            out.push_str(", ");
            json::push_key(&mut out, "type");
            json::push_string(&mut out, metric.type_name());
            if !metric.labels.is_empty() {
                out.push_str(", ");
                json::push_key(&mut out, "labels");
                out.push('{');
                for (j, (key, value)) in metric.labels.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    json::push_key(&mut out, key);
                    json::push_string(&mut out, value);
                }
                out.push('}');
            }
            out.push_str(", ");
            match &metric.value {
                MetricValue::Counter(v) => {
                    json::push_key(&mut out, "value");
                    out.push_str(&v.to_string());
                }
                MetricValue::Gauge(v) => {
                    json::push_key(&mut out, "value");
                    json::push_f64(&mut out, *v);
                }
                MetricValue::Histogram(hist) => {
                    json::push_key(&mut out, "buckets");
                    out.push('[');
                    for (j, (bound, count)) in hist.bounds.iter().zip(&hist.counts).enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!("[{bound}, {count}]"));
                    }
                    out.push_str("], ");
                    json::push_key(&mut out, "count");
                    out.push_str(&hist.count.to_string());
                    out.push_str(", ");
                    json::push_key(&mut out, "sum");
                    out.push_str(&hist.sum.to_string());
                    out.push_str(", ");
                    json::push_key(&mut out, "max");
                    out.push_str(&hist.max.to_string());
                }
            }
            out.push('}');
        }
        out.push(']');
        out
    }

    /// The first row with this name, if any (test/diagnostic helper).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The row printed under `key` — its name and label block as
    /// `Display` writes them, e.g. `vstore_serve_latency_us{kind="query"}`
    /// — read as a number: a counter or gauge as its value, a histogram
    /// as its sample count (test/diagnostic helper).
    #[must_use]
    pub fn value(&self, key: &str) -> Option<f64> {
        let metric = self
            .metrics
            .iter()
            .find(|m| key.strip_prefix(m.name.as_str()) == Some(m.label_block(None).as_str()))?;
        Some(match &metric.value {
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Gauge(v) => *v,
            MetricValue::Histogram(hist) => hist.count as f64,
        })
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for metric in &self.metrics {
            write!(f, "{}{} ", metric.name, metric.label_block(None))?;
            match &metric.value {
                MetricValue::Counter(v) => writeln!(f, "{v}")?,
                MetricValue::Gauge(v) => writeln!(f, "{}", finite_or_zero(*v))?,
                MetricValue::Histogram(hist) => {
                    let mean = if hist.count == 0 {
                        0.0
                    } else {
                        hist.sum as f64 / hist.count as f64
                    };
                    writeln!(f, "n={} mean={mean:.1} max={}", hist.count, hist.max)?;
                }
            }
        }
        Ok(())
    }
}

/// A source of metric rows. Implementations snapshot their stats source
/// on every call — collectors hold handles, not copies.
pub trait Collector: Send + Sync {
    /// Append this source's current rows to `out`.
    fn collect(&self, out: &mut Vec<Metric>);
}

/// Closures are collectors.
impl<F> Collector for F
where
    F: Fn(&mut Vec<Metric>) + Send + Sync,
{
    fn collect(&self, out: &mut Vec<Metric>) {
        self(out);
    }
}

/// The one registry every stats source registers into.
#[derive(Default)]
pub struct MetricsRegistry {
    collectors: Mutex<Vec<Box<dyn Collector>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("collectors", &lock_unpoisoned(&self.collectors).len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register one collector; it is polled on every snapshot from then
    /// on.
    pub fn register(&self, collector: Box<dyn Collector>) {
        lock_unpoisoned(&self.collectors).push(collector);
    }

    /// Registered collector count.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.collectors).len()
    }

    /// Whether no collector has registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Poll every collector and return the rows in stable
    /// `(name, labels)` order.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut metrics = Vec::new();
        for collector in lock_unpoisoned(&self.collectors).iter() {
            collector.collect(&mut metrics);
        }
        metrics.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        MetricsSnapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_polls_collectors_and_sorts_rows() {
        let registry = MetricsRegistry::new();
        registry.register(Box::new(|out: &mut Vec<Metric>| {
            out.push(Metric::gauge("z_gauge", "a gauge", 1.5));
            out.push(Metric::counter("a_counter", "a counter", 7).with_label("shard", 1));
        }));
        registry.register(Box::new(|out: &mut Vec<Metric>| {
            out.push(Metric::counter("a_counter", "a counter", 3).with_label("shard", 0));
        }));
        assert_eq!(registry.len(), 2);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a_counter", "a_counter", "z_gauge"]);
        assert_eq!(snapshot.metrics[0].labels, [("shard".into(), "0".into())]);
    }

    #[test]
    fn latency_histograms_snapshot_non_cumulative_buckets() {
        let mut hist = LatencyHistogram::default();
        hist.record(0);
        hist.record(3);
        hist.record(3);
        hist.record(900);
        let snap = HistogramSnapshot::from_latency(&hist);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.max, 900);
        assert_eq!(snap.counts.iter().sum::<u64>(), 4);
        assert_eq!(snap.bounds[0], 0);
        assert!(snap.bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn prometheus_exposition_accumulates_histogram_buckets() {
        let mut hist = LatencyHistogram::default();
        hist.record(1);
        hist.record(2);
        hist.record(700);
        let snapshot = MetricsSnapshot {
            metrics: vec![
                Metric::counter("vstore_reqs_total", "requests", 3),
                Metric::latency("vstore_wait_us", "queue wait", &hist),
            ],
        };
        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE vstore_reqs_total counter"), "{text}");
        assert!(text.contains("vstore_reqs_total 3"), "{text}");
        assert!(text.contains("# TYPE vstore_wait_us histogram"), "{text}");
        assert!(
            text.contains("vstore_wait_us_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("vstore_wait_us_count 3"), "{text}");
        assert!(text.contains("vstore_wait_us_sum 703"), "{text}");
        // Cumulative: every bucket line's value is <= the +Inf count.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=\"")) {
            let value: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("bucket value");
            assert!(value >= last, "{line}");
            last = value;
        }
    }

    /// `le` is inclusive and samples are whole µs: a 4 µs sample is in
    /// "≤ 7", not missing from "≤ 4". The unbounded top bin counts only
    /// in `+Inf`.
    #[test]
    fn prometheus_le_bounds_are_inclusive() {
        let mut hist = LatencyHistogram::default();
        for us in [0, 1, 2, 3, 4] {
            hist.record(us);
        }
        let text = MetricsSnapshot {
            metrics: vec![Metric::latency("h", "hist", &hist)],
        }
        .to_prometheus();
        for (le, cumulative) in [("0", 1), ("1", 2), ("3", 4), ("7", 5), ("+Inf", 5)] {
            let line = format!("h_bucket{{le=\"{le}\"}} {cumulative}\n");
            assert!(text.contains(&line), "{line}in\n{text}");
        }

        hist.record(u64::MAX);
        let snap = HistogramSnapshot::from_latency(&hist);
        assert_eq!(snap.bounds.last(), Some(&((1u64 << 30) - 1)));
        assert_eq!(snap.counts.iter().sum::<u64>(), 5);
        assert_eq!(snap.count, 6);
    }

    /// A deployment's collector cannot break the exposition with its help
    /// text: backslash and newline are escaped onto one `# HELP` line.
    #[test]
    fn prometheus_help_text_is_escaped() {
        let registry = MetricsRegistry::new();
        registry.register(Box::new(|out: &mut Vec<Metric>| {
            out.push(Metric::counter("x_total", "a\nb\\c", 1));
        }));
        let text = registry.snapshot().to_prometheus();
        let help: Vec<&str> = text.lines().filter(|l| l.starts_with("# HELP")).collect();
        assert_eq!(help, ["# HELP x_total a\\nb\\\\c"], "{text}");
        assert_eq!(text.lines().count(), 3, "{text}");
    }

    /// The operator report: one line per row, no NaN or infinity however
    /// the gauges read, saturated counters in full, and an empty
    /// histogram as `n=0`.
    #[test]
    fn display_prints_one_line_per_row_and_never_nan() {
        assert_eq!(MetricsRegistry::new().snapshot().to_string(), "");

        let mut hist = LatencyHistogram::default();
        hist.record(3);
        hist.record(6);
        let snapshot = MetricsSnapshot {
            metrics: vec![
                Metric::counter("c_total", "counter", u64::MAX).with_label("shard", 2),
                Metric::gauge("g_nan", "gauge", f64::NAN),
                Metric::gauge("g_inf", "gauge", f64::INFINITY),
                Metric::gauge("g_neg_inf", "gauge", f64::NEG_INFINITY),
                Metric::gauge("g", "gauge", 1.5),
                Metric::latency("h_empty", "hist", &LatencyHistogram::default()),
                Metric::latency("h", "hist", &hist).with_label("kind", "query"),
            ],
        };
        let text = snapshot.to_string();
        assert_eq!(text.lines().count(), snapshot.metrics.len(), "{text}");
        assert!(!text.contains("NaN") && !text.contains(" inf"), "{text}");
        assert_eq!(snapshot.value("g"), Some(1.5));
        assert_eq!(snapshot.value("h{kind=\"query\"}"), Some(2.0));
        assert_eq!(snapshot.value("h"), None, "a key names the labels too");
        for line in [
            "c_total{shard=\"2\"} 18446744073709551615",
            "g_nan 0",
            "g_inf 0",
            "g_neg_inf 0",
            "g 1.5",
            "h_empty n=0 mean=0.0 max=0",
            "h{kind=\"query\"} n=2 mean=4.5 max=6",
        ] {
            assert!(text.lines().any(|l| l == line), "{line} in\n{text}");
        }
    }

    #[test]
    fn json_rendering_is_valid_and_typed() {
        let mut hist = LatencyHistogram::default();
        hist.record(5);
        let snapshot = MetricsSnapshot {
            metrics: vec![
                Metric::counter("c", "counter \"quoted\"", 1).with_label("shard", 2),
                Metric::gauge("g", "gauge", f64::NAN),
                Metric::latency("h", "hist", &hist),
            ],
        };
        let json = snapshot.to_json();
        assert_eq!(crate::json::validate(&json), Ok(()), "{json}");
        assert!(json.contains("\"type\": \"counter\""));
        assert!(json.contains("\"type\": \"gauge\""));
        assert!(json.contains("\"type\": \"histogram\""));
        assert!(json.contains("\"labels\": {\"shard\": \"2\"}"));
    }
}
