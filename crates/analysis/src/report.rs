//! Findings and the text/JSON report formats.
//!
//! A finding's identity (its **key**) is deliberately line-number-free:
//! `rule|file|context|normalized snippet`. Line numbers drift on every
//! edit; the key only changes when the offending code itself moves files,
//! changes function, or changes text. Every finding fails the gate; the
//! one suppression is a per-site `// vstore-lint: allow(rule)` comment.

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
    /// The enclosing function or item, when known.
    pub context: String,
    /// Human-readable description.
    pub message: String,
    /// Stable identity; see the module docs.
    pub key: String,
}

impl Finding {
    /// Build a finding with the standard key shape.
    pub fn new(
        rule: &'static str,
        file: &str,
        line: usize,
        context: &str,
        message: String,
        snippet: &str,
    ) -> Finding {
        let key = format!("{rule}|{file}|{context}|{}", normalize(snippet));
        Finding {
            rule,
            file: file.to_owned(),
            line,
            context: context.to_owned(),
            message,
            key,
        }
    }
}

/// Collapse whitespace so a reformat does not change a finding's key.
fn normalize(snippet: &str) -> String {
    let mut out = String::with_capacity(snippet.len());
    let mut last_space = true;
    for c in snippet.trim().chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out
}

/// The outcome of one analysis run.
#[derive(Debug)]
pub struct Report {
    /// Every finding, in deterministic order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Order `findings` by file, line, rule and key.
    pub fn new(mut findings: Vec<Finding>) -> Report {
        findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.key).cmp(&(&b.file, b.line, b.rule, &b.key))
        });
        Report { findings }
    }

    /// Human-readable report.
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
        let _ = writeln!(out, "analysis_gate: {} finding(s)", self.findings.len());
        for (rule, total) in &by_rule {
            let _ = writeln!(out, "  {rule}: {total}");
        }
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"tool\": \"analysis_gate\",\n  \"version\": 2,\n");
        let _ = writeln!(out, "  \"total\": {},", self.findings.len());
        out.push_str("  \"findings\": [\n");
        let total = self.findings.len();
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < total { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"context\": {}, \
                 \"message\": {}, \"key\": {}}}{comma}",
                json_string(f.rule),
                json_string(&f.file),
                f.line,
                json_string(&f.context),
                json_string(&f.message),
                json_string(&f.key),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escape a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, snippet: &str) -> Finding {
        Finding::new(rule, "a.rs", 3, "f", format!("msg {snippet}"), snippet)
    }

    #[test]
    fn keys_ignore_whitespace_and_line_numbers() {
        let a = Finding::new("r", "a.rs", 3, "f", "m".into(), "x  as   u32");
        let b = Finding::new("r", "a.rs", 99, "f", "m".into(), "x as u32");
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn reports_order_findings_and_count_them_per_rule() {
        let mut late = finding("r", "one");
        late.line = 9;
        let report = Report::new(vec![late, finding("s", "two"), finding("r", "three")]);
        let lines: Vec<usize> = report.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [3, 3, 9]);
        let text = report.to_text();
        assert!(text.contains("analysis_gate: 3 finding(s)"), "{text}");
        assert!(text.contains("  r: 2\n  s: 1\n"), "{text}");
        assert!(report.to_json().contains("\"total\": 3,"));
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
