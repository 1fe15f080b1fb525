//! Result files and `--compare`.
//!
//! A result file is one flat JSON object, one `"name": value` row per
//! line, written through `vstore::obs::json`. Rows of a workload are
//! prefixed with its name: `scan_cached.e2e.query_p50_ms`,
//! `scan_cached.spread.query_p50_ms.q1`, `scan_cached.layer.…`. The reader
//! understands exactly that shape and keeps the numeric rows.

use crate::spec::{Workload, END_TO_END};
use std::collections::BTreeMap;
use vstore::obs::json;

/// One value of a flat result file.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Num(f64),
    Text(String),
}

/// An ordered flat result document.
#[derive(Debug, Default)]
pub struct Flat {
    rows: Vec<(String, Value)>,
}

impl Flat {
    pub fn num(&mut self, name: impl Into<String>, value: f64) {
        self.rows.push((name.into(), Value::Num(value)));
    }

    pub fn text(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.rows.push((name.into(), Value::Text(value.into())));
    }

    /// A boolean, stored as 1 or 0 so that every non-text row is a number.
    pub fn flag(&mut self, name: impl Into<String>, value: bool) {
        self.num(name, if value { 1.0 } else { 0.0 });
    }

    /// Append the numeric rows of a parsed file under `prefix.`.
    pub fn extend_prefixed(&mut self, prefix: &str, rows: &BTreeMap<String, f64>) {
        for (name, value) in rows {
            self.num(format!("{prefix}.{name}"), *value);
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.rows.iter().enumerate() {
            json::push_key(&mut out, name);
            match value {
                Value::Num(v) => json::push_f64(&mut out, *v),
                Value::Text(s) => json::push_string(&mut out, s),
            }
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }
}

/// Parse a flat result file: every `"name": number` line. Text rows (host
/// metadata) are skipped.
pub fn parse_flat(text: &str) -> BTreeMap<String, f64> {
    let mut nums = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, value)) = line
            .strip_prefix('"')
            .and_then(|rest| rest.split_once("\": "))
        else {
            continue;
        };
        if let Ok(value) = value.parse::<f64>() {
            nums.insert(name.to_owned(), value);
        }
    }
    nums
}

/// Verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The quartiles of one run's rounds lie further apart than the bound,
    /// so a change of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison.
#[derive(Debug)]
pub struct Comparison {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b - a) / a`, signed as measured.
    pub change: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Distance between the quartiles of a metric's per-round values, as a
/// share of the value, if the file records them.
fn spread_of(nums: &BTreeMap<String, f64>, workload: &str, metric: &str, value: f64) -> f64 {
    let row = |edge: &str| nums.get(&format!("{workload}.spread.{metric}.{edge}"));
    match (row("q1"), row("q3")) {
        (Some(q1), Some(q3)) if value > 0.0 => (q3 - q1) / value,
        _ => 0.0,
    }
}

/// Why result `a` may not serve as a baseline, if it may not: a run the
/// noise guard flagged, or one that failed its own checks, says nothing a
/// later result can be held against.
pub fn unfit_baseline(a: &BTreeMap<String, f64>) -> Option<String> {
    Workload::ALL.iter().find_map(|workload| {
        let row = |name: &str| a.get(&format!("{}.{name}", workload.name())).copied();
        if row("noisy") == Some(1.0) {
            Some(format!("{} is flagged noisy", workload.name()))
        } else if row("correct") == Some(0.0) {
            Some(format!("{} failed its checks", workload.name()))
        } else {
            None
        }
    })
}

/// The `failed` row of one workload: any rise in failed operations, or a
/// result that did not pass its own checks, is a regression.
fn compare_failed(
    workload: &'static str,
    a: &BTreeMap<String, f64>,
    b: &BTreeMap<String, f64>,
) -> Option<Comparison> {
    let (va, vb) = (
        *a.get(&format!("{workload}.failed"))?,
        *b.get(&format!("{workload}.failed"))?,
    );
    let incorrect = b.get(&format!("{workload}.correct")) == Some(&0.0);
    Some(Comparison {
        workload,
        metric: "failed",
        a: va,
        b: vb,
        change: if va != 0.0 { (vb - va) / va } else { 0.0 },
        bound: 0.0,
        verdict: if vb > va || incorrect {
            Verdict::Worse
        } else {
            Verdict::Ok
        },
    })
}

/// Compare result `b` against baseline `a` on the failure count and every
/// end-to-end metric both files carry.
pub fn compare(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        rows.extend(compare_failed(workload.name(), a, b));
        for (metric, bound) in END_TO_END {
            let name = format!("{}.e2e.{}", workload.name(), metric.name);
            let (Some(&va), Some(&vb)) = (a.get(&name), b.get(&name)) else {
                continue;
            };
            let change = if va != 0.0 { (vb - va) / va } else { 0.0 };
            let worsening = if metric.higher_is_better {
                -change
            } else {
                change
            };
            let spread = spread_of(a, workload.name(), metric.name, va).max(spread_of(
                b,
                workload.name(),
                metric.name,
                vb,
            ));
            let verdict = if spread > *bound {
                Verdict::Unresolved
            } else if worsening > *bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Comparison {
                workload: workload.name(),
                metric: metric.name,
                a: va,
                b: vb,
                change,
                bound: *bound,
                verdict,
            });
        }
    }
    rows
}

/// Render a comparison as an aligned table.
pub fn render(rows: &[Comparison]) -> String {
    let mut out = format!(
        "{:<18} {:<26} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for row in rows {
        out.push_str(&format!(
            "{:<18} {:<26} {:>14.3} {:>14.3} {:>+7.1}% {:>5.0}%  {}\n",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.change * 100.0,
            row.bound * 100.0,
            row.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(p50: f64, rate: f64, rate_q1: f64, rate_q3: f64) -> Flat {
        checked_sample(p50, rate, rate_q1, rate_q3, 0, false)
    }

    fn checked_sample(
        p50: f64,
        rate: f64,
        rate_q1: f64,
        rate_q3: f64,
        failed: u64,
        noisy: bool,
    ) -> Flat {
        let mut flat = Flat::default();
        flat.text("host.cpu_model", "Some \"CPU\" @ 2 GHz");
        flat.flag("scan_cached.noisy", noisy);
        flat.flag("scan_cached.correct", failed == 0);
        flat.num("scan_cached.failed", failed as f64);
        flat.num("scan_cached.e2e.query_p50_ms", p50);
        flat.num("scan_cached.e2e.query_video_x_realtime", rate);
        flat.num("scan_cached.spread.query_video_x_realtime.q1", rate_q1);
        flat.num("scan_cached.spread.query_video_x_realtime.q3", rate_q3);
        flat.num("scan_cached.layer.serve.queue_wait_us", 12.5);
        flat
    }

    #[test]
    fn flat_files_round_trip_through_the_reader() {
        let text = sample(2.5, 10_000.0, 9_900.0, 10_100.0).to_json();
        json::validate(&text).expect("valid JSON");
        let nums = parse_flat(&text);
        assert_eq!(nums["scan_cached.e2e.query_p50_ms"], 2.5);
        assert_eq!(nums["scan_cached.noisy"], 0.0);
        assert_eq!(nums["scan_cached.layer.serve.queue_wait_us"], 12.5);
        assert!(!nums.contains_key("host.cpu_model"));

        let mut outer = Flat::default();
        outer.extend_prefixed("again", &nums);
        let nums = parse_flat(&outer.to_json());
        assert_eq!(nums["again.scan_cached.e2e.query_p50_ms"], 2.5);
    }

    fn verdicts(a: &Flat, b: &Flat) -> Vec<(&'static str, Verdict)> {
        compare(&parse_flat(&a.to_json()), &parse_flat(&b.to_json()))
            .into_iter()
            .map(|row| (row.metric, row.verdict))
            .collect()
    }

    #[test]
    fn compare_separates_ok_worse_and_unresolved() {
        let base = sample(2.5, 10_000.0, 9_900.0, 10_100.0);
        // Within the bound either way, and better is never worse.
        let same = sample(2.7, 9_500.0, 9_400.0, 9_600.0);
        assert_eq!(
            verdicts(&base, &same),
            [
                ("failed", Verdict::Ok),
                ("query_p50_ms", Verdict::Ok),
                ("query_video_x_realtime", Verdict::Ok)
            ]
        );
        let better = sample(1.0, 20_000.0, 19_900.0, 20_100.0);
        assert!(verdicts(&base, &better)
            .iter()
            .all(|(_, v)| *v == Verdict::Ok));
        // Latency up 40 % and rate down 40 %: both beyond the 25 % bound.
        let worse = sample(3.5, 6_000.0, 5_900.0, 6_100.0);
        assert_eq!(
            verdicts(&base, &worse),
            [
                ("failed", Verdict::Ok),
                ("query_p50_ms", Verdict::Worse),
                ("query_video_x_realtime", Verdict::Worse)
            ]
        );
        // A rate whose quartiles lie 40 % apart resolves nothing.
        let noisy = sample(2.5, 8_000.0, 6_400.0, 9_600.0);
        assert_eq!(
            verdicts(&base, &noisy)[2],
            ("query_video_x_realtime", Verdict::Unresolved)
        );
        let table = render(&compare(
            &parse_flat(&base.to_json()),
            &parse_flat(&worse.to_json()),
        ));
        assert!(
            table.contains("worse") && table.contains("+40.0%"),
            "{table}"
        );
    }

    #[test]
    fn any_rise_in_failures_is_worse() {
        let base = sample(2.5, 10_000.0, 9_900.0, 10_100.0);
        // Faster, but one operation failed: a regression all the same.
        let failing = checked_sample(1.0, 20_000.0, 19_900.0, 20_100.0, 1, false);
        assert_eq!(verdicts(&base, &failing)[0], ("failed", Verdict::Worse));
        assert_eq!(verdicts(&failing, &base)[0], ("failed", Verdict::Ok));
        // Failures that did not rise still leave an incorrect result worse.
        assert_eq!(verdicts(&failing, &failing)[0], ("failed", Verdict::Worse));
    }

    #[test]
    fn a_noisy_or_failed_run_is_no_baseline() {
        let fit = |flat: &Flat| unfit_baseline(&parse_flat(&flat.to_json()));
        assert_eq!(fit(&sample(2.5, 10_000.0, 9_900.0, 10_100.0)), None);
        let noisy = checked_sample(2.5, 10_000.0, 9_900.0, 10_100.0, 0, true);
        assert!(fit(&noisy).is_some_and(|why| why.contains("scan_cached is flagged noisy")));
        let failed = checked_sample(2.5, 10_000.0, 9_900.0, 10_100.0, 3, false);
        assert!(fit(&failed).is_some_and(|why| why.contains("failed its checks")));
    }
}
