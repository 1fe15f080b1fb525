//! Findings and the text report. Every finding fails the analysis test;
//! there is no per-site suppression.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired (kebab-case, e.g. `lock-order`).
    pub rule: &'static str,
    /// Workspace-relative file, `/`-separated. `(workspace)` for findings
    /// that span files (lock cycles).
    pub file: String,
    /// 1-based line, 0 when the finding has no single line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// The outcome of one analysis run.
#[derive(Debug)]
pub struct Report {
    /// Every finding, in deterministic order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Order `findings` by file, line, rule and message.
    pub fn new(mut findings: Vec<Finding>) -> Report {
        findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
        Report { findings }
    }

    /// Human-readable report: one line per finding, then a count per rule.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for f in &self.findings {
            *by_rule.entry(f.rule).or_insert(0) += 1;
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        if !self.findings.is_empty() {
            out.push('\n');
        }
        let _ = writeln!(out, "vstore-analysis: {} finding(s)", self.findings.len());
        for (rule, total) in &by_rule {
            let _ = writeln!(out, "  {rule}: {total}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, line: usize, message: &str) -> Finding {
        Finding {
            rule,
            file: "a.rs".into(),
            line,
            message: message.into(),
        }
    }

    #[test]
    fn reports_order_findings_and_count_them_per_rule() {
        let report = Report::new(vec![
            finding("r", 9, "late"),
            finding("s", 3, "two"),
            finding("r", 3, "three"),
        ]);
        let lines: Vec<usize> = report.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [3, 3, 9]);
        let text = report.to_text();
        assert!(text.starts_with("a.rs:3: [r] three\na.rs:3: [s] two\na.rs:9: [r] late\n"));
        assert!(text.contains("vstore-analysis: 3 finding(s)"), "{text}");
        assert!(text.contains("  r: 2\n  s: 1\n"), "{text}");
    }
}
