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
use vstore_types::LatencyHistogram;

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
/// here ([`count in (previous bound, bound]`]); the Prometheus renderer
/// accumulates them into the exposition format's cumulative `le` series.
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
    /// Snapshot a [`LatencyHistogram`]: one bucket per populated
    /// power-of-two bin, bounds in µs.
    #[must_use]
    pub fn from_latency(hist: &LatencyHistogram) -> HistogramSnapshot {
        let (buckets, count, total_us, max_us) = hist.to_parts();
        let mut bounds = Vec::new();
        let mut counts = Vec::new();
        let top = buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        for (i, &bucket_count) in buckets.iter().enumerate().take(top) {
            bounds.push(if i == 0 { 0 } else { 1u64 << i });
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
            for c in value.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// The registry's materialized output: every collector's rows in stable
/// `(name, labels)` order.
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
                out.push_str(&format!("# HELP {} {}\n", metric.name, metric.help));
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
                    let rendered = if v.is_finite() { *v } else { 0.0 };
                    out.push_str(&format!(
                        "{}{} {rendered}\n",
                        metric.name,
                        metric.label_block(None)
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
