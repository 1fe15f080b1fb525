//! The static-analysis CI gate: run the project-invariant rules over the
//! workspace and fail on any finding.
//!
//! Usage:
//!   analysis_gate [--root DIR] [--format text|json] [--out FILE] [--locks]
//!
//! - `--root DIR` workspace root (default: current directory)
//! - `--format json` emit the machine-readable report (default: text)
//! - `--out FILE` write the report to FILE as well as the stdout policy:
//!   text still goes to stderr so CI logs stay readable
//! - `--locks` dump the global lock graph (every observed acquired-before
//!   edge with its witness sites) and exit — the raw material for
//!   lock-order audits
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use vstore_analysis::report::Report;

struct Options {
    root: PathBuf,
    format_json: bool,
    out: Option<PathBuf>,
    dump_locks: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        root: PathBuf::from("."),
        format_json: false,
        out: None,
        dump_locks: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                options.root = PathBuf::from(args.next().ok_or("--root needs a value")?);
            }
            "--format" => {
                let value = args.next().ok_or("--format needs text|json")?;
                options.format_json = match value.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format {other:?}")),
                };
            }
            "--out" => {
                options.out = Some(PathBuf::from(args.next().ok_or("--out needs a value")?));
            }
            "--locks" => options.dump_locks = true,
            "--help" | "-h" => {
                return Err(format!(
                    "usage: analysis_gate [--root DIR] [--format text|json] [--out FILE] \
                     [--locks]\nrules: {}",
                    vstore_analysis::rules::ALL_RULES.join(", ")
                ));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("analysis_gate: {message}");
            return ExitCode::from(2);
        }
    };
    if options.dump_locks {
        let sources = match vstore_analysis::collect_workspace_sources(&options.root) {
            Ok(sources) => sources,
            Err(message) => {
                eprintln!("analysis_gate: {message}");
                return ExitCode::from(2);
            }
        };
        let files: Vec<_> = sources
            .iter()
            .map(|(path, text)| vstore_analysis::scan::SourceFile::parse(path, text))
            .collect();
        let graph = vstore_analysis::rules::build_lock_graph(&files);
        let mut edge_count = 0usize;
        for (outer, inner, sites) in graph.edges() {
            edge_count += 1;
            println!("{outer} -> {inner}");
            for site in sites {
                println!("    {}:{} in {}", site.file, site.line, site.function);
            }
        }
        let cycles = graph.cycles();
        println!("{edge_count} edge(s), {} cycle(s)", cycles.len());
        return ExitCode::SUCCESS;
    }

    let findings = match vstore_analysis::analyze_workspace(&options.root) {
        Ok(findings) => findings,
        Err(message) => {
            eprintln!("analysis_gate: {message}");
            return ExitCode::from(2);
        }
    };

    let report = Report::new(findings);

    let rendered = if options.format_json {
        report.to_json()
    } else {
        report.to_text()
    };
    if let Some(out) = &options.out {
        if let Err(e) = std::fs::write(out, &rendered) {
            eprintln!("analysis_gate: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    if options.format_json {
        // JSON to stdout (or --out); keep the human summary on stderr so CI
        // logs stay readable either way.
        if options.out.is_none() {
            println!("{rendered}");
        }
        eprint!("{}", report.to_text());
    } else {
        print!("{rendered}");
    }

    if !report.findings.is_empty() {
        eprintln!(
            "analysis_gate: {} finding(s); fix them or add a justified \
             `// vstore-lint: allow(rule)`",
            report.findings.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
